"""Pinned output digests: the data bytes of one small run of every
experiment and of theory grids.  The digests of fig5 and fig6 runs whose
periods span more than one chunk (``fig5_chunks``, ``fig6_default``) were
recorded at version 0.12.0, which draws every chunk of a period from its
own stream; the moments digests at 0.11.0, which draws each chunk of the
moment check from its own stream; the other fig5 and fig6 digests at
0.10.0, which drops the settings these experiments do not read (``span``,
and fig6's ``lambda_rate``) from their metadata and keeps every data row;
the fig4 digests at 0.9.0, which folds every mean and standard error
from per-batch and per-chunk moments; the two theory grids longer than one
chunk of the CSV writer at 0.5.0, the other short theory grid at 0.4.0,
and the 100 001-row benchmark grid at 0.10.0, before the writer split long
tables into parts, one per CPU.  No version since changed a theory byte.

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

VERSION = "0.12.0"
NUMPY = "2.4.6"

RUNS = {
    "fig4": (
        ["simulate", "fig4", "--replications", "300"],
        "8cbe4d594574d99ffe15dcc1fb0dd44afcb9ca9c470bbc3060e4a280e1be35a6",
    ),
    "fig4_queries3": (
        ["simulate", "fig4", "--replications", "300", "--queries", "3"],
        "27815ac7fc011e7e058a5861656efe99083d03da0959b89615143c4c1a0e84cb",
    ),
    "fig5": (
        ["simulate", "fig5", "--replications", "20"],
        "a68d5694990041900b7536844aaa8fd6374ba298977810daeeb49909c6566c98",
    ),
    "fig6": (
        ["simulate", "fig6", "--replications", "20"],
        "44c9d4c5ce5abbe609eeb4c3c153ba0188e8dbd88ba9b817439b362aa368ce3e",
    ),
    # 2 000 windows per period: from T = 80 on a period spans 2 or 3
    # chunks of its own streams
    "fig5_chunks": (
        ["simulate", "fig5", "--replications", "2000"],
        "5d1b8eca0aab2c3e0869aff6f27d62ae79a82c11a35a413b5a5a187fb7a99080",
    ),
    # 100 windows per period: up to 3 chunks at lambda * T = 800
    "fig6_default": (
        ["simulate", "fig6", "--replications", "100"],
        "6e9543c6f24cc319cdf66302637fd448c98bcf4d6d388755c205baa872559fe7",
    ),
    "moments_n6": (
        ["simulate", "moments", "--samples", "10000", "--n-max", "6"],
        "1f071e03c03fabd7015a8d8d23fdb18ee1a6001ec9afc1768a999e5044c18fd0",
    ),
    "moments_n9": (
        ["simulate", "moments", "--samples", "10000", "--n-max", "9"],
        "ae1d4fc8f18cfab058aa4cde37a3f14b4fd8d615bee744363828dfb78aebe1fd",
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
    # the benchmark's grid: 100 001 rows, written in one part per usable CPU
    "theory_error_t_grid": (
        ["theory", "--mode", "error_t", "--sigma", "5", "--lambda", "0.1", "--T", "100", "--t", "0:100:0.001"],
        "680ad90f11924a3a0d40b71c13651c04578f437275fa94b940272e120cb2b898",
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
