"""Golden table of the built-in distortions, bit for bit.

`golden/distortion_hex.json` records, as `float.hex`, the values of `psi`,
`right_derivative` (scalar and array, including z = 0) and
`derivative_at_one_minus`, with `label`, `is_identity` and the type of each
result, for every parametric kind over parameters from 0 and 1e-300 up to
1e300, plus the identity and two piecewise-linear distortions.  A change to
a closed form that moves any last bit fails here.

Regenerate it (only when a change of value is intended) with

    PYTHONPATH=src python tests/test_distortion_golden.py --write
"""

from __future__ import annotations

import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from distrisk import (
    Identity,
    MaxMinVar,
    MaxVar,
    MinMaxVar,
    MinVar,
    ProportionalHazard,
    dirac,
    pprime_distortion,
    psi_from_measure,
)
from distrisk.distortion import DistortionMeasure

GOLDEN = Path(__file__).with_name("golden") / "distortion_hex.json"

XS = [0.0, 1e-300, 1e-17, 0.1, 0.5, 1.0, 2.0, 7.3, 1e6, 1e300]
GAMMAS = [1e-300, 0.2, 0.5, 1.0]
YS = [0.0, 1e-300, 1e-17, 0.1, 0.3, 0.5, 0.9, 1.0 - 2.0**-53, 1.0]
ZS = [0.0, 1e-300, 1e-17, 0.1, 0.5, 0.9, 1.0 - 2.0**-53]


def distortions() -> dict:
    out = {"identity": Identity()}
    for cls in (MinVar, MaxVar, MaxMinVar, MinMaxVar):
        for x in XS:
            out[f"{cls.__name__}({x!r})"] = cls(x)
    for g in GAMMAS:
        out[f"ProportionalHazard({g!r})"] = ProportionalHazard(g)
    mu = DistortionMeasure(np.asarray([0.1, 0.6, 1.0]), np.asarray([0.3, 0.3, 0.4]))
    out["psi_from_measure(0.1,0.3;0.6,0.3;1,0.4)"] = psi_from_measure(mu)
    out["psi_from_measure(dirac(0.25))"] = psi_from_measure(dirac(0.25), label="avar:0.25")
    out["pprime_distortion(2.0)"] = pprime_distortion(2.0)
    return out


def _hex(v):
    if isinstance(v, np.ndarray) and v.ndim:
        return [float(e).hex() for e in v]
    return float(v).hex()


def _kind(v) -> str:
    return f"{type(v).__name__}/{np.ndim(v)}"


def describe(psi) -> dict:
    """Every recorded value of one distortion, as hex strings and type names."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        psi_s = [psi(y) for y in YS]
        psi_a = psi(np.asarray(YS))
        rd_s = [psi.right_derivative(z) for z in ZS]
        rd_a = psi.right_derivative(np.asarray(ZS))
    return {
        "label": psi.label,
        "is_identity": psi.is_identity(),
        "psi": [_hex(v) for v in psi_s],
        "psi_array": _hex(psi_a),
        "right_derivative": [_hex(v) for v in rd_s],
        "right_derivative_array": _hex(rd_a),
        "derivative_at_one_minus": _hex(psi.derivative_at_one_minus()),
        "types": sorted({_kind(v) for v in psi_s} | {_kind(v) for v in rd_s})
        + [_kind(psi_a), _kind(rd_a), _kind(psi.derivative_at_one_minus())],
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_table_covers_every_distortion(golden):
    assert list(golden) == list(distortions())


@pytest.mark.parametrize("name", list(distortions()))
def test_bit_identical(golden, name):
    assert describe(distortions()[name]) == golden[name]


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    table = {name: describe(psi) for name, psi in distortions().items()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {len(table)} distortions to {GOLDEN}")
