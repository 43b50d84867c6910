"""Every numeric threshold and search bound of the package, named once.

A quantity that is 0 in exact arithmetic (a risk, a margin, a deficit) comes
out of a sorted cumulative sum a few units in the last place away from 0, so
sign tests compare against a slack, never against 0 itself.  Each name below
has one meaning; a module that needs the threshold imports it from here.
"""

PROB_SUM_TOL = 1e-12  # a law's or a measure's weights sum to 1 within this
RENORM_WINDOW = 1e-9  # probabilities summing this close to 1 are rescaled; further off is an error

LEQ_TOL = 1e-12  # a risk or margin within this of 0 counts as 0 in the checkers' sign tests
SUBMARTINGALE_TOL = 1e-10  # a risk minus the mean of later risks may be this negative
INDEX_TOL = 1e-6  # two acceptability indices this close are equal, far above the bisection width

X_MIN = 1e-9  # smallest family parameter the index tries; a payoff rejected there has index 0
X_MAX = 1e6  # bracket cap of the index; a payoff accepted there has index inf
BISECT_TOL = 1e-9  # absolute width at which the index bisection stops

CROSS_CHECK_TOL = 1e-9  # gap between dwvar's two forms, relative to the cell's largest |payoff|
ANALYTIC_TOL = 1e-12  # a counterexample reproduces its closed-form risks within this
PPRIME_TOL = 1e-12  # a measure this close to ((a-1)/a, 1/a) at (1/(a+1), 1) is a pprime
ROOT_BRACKET_SLACK = 1e-15  # psi(1/2) + 1/2 - 1 may be this far below 0 and bracket its root
ROOT_TOL = 1e-12  # bisection width at which that root is taken

SHAPE_TOL = 1e-12  # slack of every monotone and concave test on a distortion's knots or grid
PROBE_OFFSET = 1e-6  # parameter offset of a family's right-continuity probe
RIGHT_CONTINUITY_TOL = 1e-8  # largest extrapolated jump at a probe point that counts as continuous
