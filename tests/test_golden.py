"""Pinned output digests: the data bytes of one small run of every
experiment and of theory grids.  fig6 at its default 100 replications,
whose long windows span several batches of the draw budget, was recorded
at version 0.7.0; the two moment checks at 0.6.0; fig5, fig6, fig4 with
three queries per replication and the two theory grids longer than one
chunk of the CSV writer at 0.5.0, the others at 0.4.0.  0.5.0, 0.6.0 and
0.7.0 changed no other output byte.

A digest covers every line of the CSV except ``# tool=``, which only
names the version.  Outputs are a pure function of the manifest and the
tool version, so these digests change only together with a version bump:
a change that alters any output byte must bump ``maintsim.__version__``
and record new digests here, and a change that keeps the version must
reproduce them.  numpy's generators and summation order are part of the
bytes, so the digests hold for the numpy they were recorded with only.
"""

import hashlib

import numpy as np
import pytest

import maintsim
from maintsim.cli import EXIT_OK, main

VERSION = "0.7.0"
NUMPY = "2.4.6"

RUNS = {
    "fig4": (
        ["simulate", "fig4", "--replications", "300"],
        "aa7879851de468f870b6d82f26c10bdcf80e54893f2f23fdd76fbe3e4fe44368",
    ),
    "fig4_queries3": (
        ["simulate", "fig4", "--replications", "300", "--queries", "3"],
        "5a883655f0e0c7be4e374442a08cc26a1dd147f6b9aeec9ee024f1513f41f995",
    ),
    "fig5": (
        ["simulate", "fig5", "--replications", "20"],
        "3d78d5deadcbfd2ed6d0e2d7bb96846c6ea57400316b6fd0a864190eab0e7209",
    ),
    "fig6": (
        ["simulate", "fig6", "--replications", "20"],
        "e2f4af550175c444d02e297aa15ea71246a8888edee68f1cea3959b97f14ca7f",
    ),
    # 100 windows per period: up to 3 batches at lambda * T = 800
    "fig6_default": (
        ["simulate", "fig6", "--replications", "100"],
        "a991670971e2c6322f71b266cacf2302eb6723f4e6eff97af9823c03d643650d",
    ),
    "moments_n6": (
        ["simulate", "moments", "--samples", "10000", "--n-max", "6"],
        "494bd91b01f60588e979e9ee1807d21b77e17ab9ea15bd3113725e7fc4f08817",
    ),
    "moments_n9": (
        ["simulate", "moments", "--samples", "10000", "--n-max", "9"],
        "209fc54555340a738d296385d1f8cd0fa62e30ca580c24febf88db3767a00647",
    ),
    "theory_error_t": (
        ["theory", "--mode", "error_t", "--sigma", "5", "--lambda", "0.1", "--T", "100", "--t", "0:100:0.5"],
        "8fc5218601ff35b5c6b9fb83368d82fc900263031c791f85f51246a7ba5737a2",
    ),
    # grids longer than one chunk of the CSV writer: 10 001 and 10 000 rows
    "theory_error_t_chunks": (
        ["theory", "--mode", "error_t", "--sigma", "5", "--lambda", "0.1", "--T", "100", "--t", "0:100:0.01"],
        "65faafcf38caf1c0c5438e9c14fa6696951d9736ae0c9fcc932fbb5409e47501",
    ),
    "theory_error_avg_chunks": (
        ["theory", "--mode", "error_avg", "--sigma", "5", "--lambda", "0.1", "--T", "1:10000:1"],
        "6505605df444da2312efb4499910ece6430edfcb6e1eda3b9647c946c17a328a",
    ),
}


def data_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for line in fh:
            if not line.startswith(b"# tool="):
                h.update(line)
    return h.hexdigest()


def test_digests_belong_to_this_version():
    assert maintsim.__version__ == VERSION, "record new digests together with the version bump"


@pytest.mark.skipif(
    np.__version__ != NUMPY,
    reason=f"digests were recorded with numpy {NUMPY}; numpy {np.__version__} may draw or sum differently",
)
@pytest.mark.parametrize("name", sorted(RUNS))
def test_output_digest(tmp_path, name):
    argv, digest = RUNS[name]
    out = tmp_path / f"{name}.csv"
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    assert data_digest(out) == digest
