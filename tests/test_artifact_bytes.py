"""Every artifact of the README and benchmark CLI commands keeps its bytes.

Three more runs pin the drift-free walk paths of ``mc tilted`` at beta = 0
and of ``mc corollary`` in d = 2, and the JSON form of the exact law.

Each command runs in-process and every file it writes, ``manifest.json``
included, must hash to the recorded sha256 prefix (first 16 hex digits).
A change that moves artifact bytes on purpose updates this table and says
so in CHANGES.md.  The bytes repeat for one numpy build and CPU dispatch:
numpy picks its ``np.exp`` kernel per CPU, and with AVX-512 dispatch off
(``NPY_DISABLE_CPU_FEATURES="X86_V4,AVX512_ICL,AVX512_SPR"``, numpy 2.4.6)
the two exact ``law.csv`` pins and the t = 40 ``range_density.csv`` pin
move (ROADMAP item 23).  No artifact sum goes through BLAS, whose dot
kernel is picked per CPU: the weighted sums of ``mc tilted`` and of the
continuous quadratures use ``math.fsum``, which is correctly rounded, so no
dot kernel picks their last bits.  The samples of ``mc brownian`` do not
depend on the thread count: only the manifest, which echoes ``--threads``,
differs between the one- and two-thread runs.
"""

import hashlib

import pytest

from rangepolymer.cli import main

_BETA = ["--beta", "1"]
_CONTINUOUS_40 = ["continuous", *_BETA, "--t", "40",
                  "--outputs", "density,Z,range-clt,endpoint-clt"]
_CONTINUOUS_40_FILES = {
    "endpoint_clt.csv": "7614b50911624043",
    "manifest.json": "339bb136a585050a",
    "partition_continuous.json": "19c649f3edfc260a",
    "range_clt.csv": "ab8a1fc523abc507",
    "range_density.csv": "5e6cdafbba19ae21",
}
_BROWNIAN = ["mc", "brownian", "--t", "1", "--dt", "1e-4", "--seed", "42",
             "--samples", "8192"]
_BROWNIAN_FILES = {
    "brownian.json": "daee1e1465c736ad",
    "histograms.csv": "e1c60b2e5735249b",
}

# command id -> (argv, {file name: sha256 prefix})
ARTIFACTS = {
    "constants": (["constants", *_BETA], {
        "constants.csv": "b53f19256574aec3",
        "manifest.json": "89f9778002f008e2",
    }),
    "readme-rate-curves": (
        ["rate-curves", *_BETA, "--model", "discrete", "--grid", "0:1:101"], {
            "manifest.json": "5ac5a5fc962908b3",
            "rate_curve_discrete.csv": "15443de582d8123c",
        }),
    "readme-exact": (
        ["exact", *_BETA, "--n", "400", "--outputs", "law,Z,free-energy,clt,ldp",
         "--grid", "0.3,0.5,0.7,0.95", "--n-grid", "100,200,400"], {
            "clt.json": "ceb94e8f3c16d216",
            "free_energy.csv": "f8913bd5a6de689a",
            "law.csv": "3a45bea1f429ff87",
            "ldp.csv": "d22dc7f4317b578e",
            "manifest.json": "f1c0fae51da824d6",
            "partition.json": "e8b0d811e6bec50e",
        }),
    "exact-law-json": (
        ["exact", *_BETA, "--n", "30", "--outputs", "law", "--format", "json"], {
            "law.json": "93894c71892fbcde",
            "manifest.json": "f050309466e844e3",
        }),
    "continuous-t40": (_CONTINUOUS_40, _CONTINUOUS_40_FILES),
    "readme-mc-tilted": (
        ["mc", "tilted", *_BETA, "--n", "200", "--observable", "endpoint_mean_positive",
         "--seed", "7", "--samples", "100000"], {
            "estimate.json": "c756cc292dad37a2",
            "manifest.json": "4ea12746eb9d3e25",
        }),
    "bench-rate-curves-discrete": (
        ["rate-curves", *_BETA, "--model", "discrete", "--grid", "0:1:2001"], {
            "manifest.json": "c3d852c8190dc6c6",
            "rate_curve_discrete.csv": "0c75a181509e329b",
        }),
    "bench-rate-curves-continuous": (
        ["rate-curves", *_BETA, "--model", "continuous", "--grid", "0:1:2001"], {
            "manifest.json": "4e777f38c2da23d3",
            "rate_curve_continuous.csv": "debc625136eacded",
        }),
    "bench-exact": (
        ["exact", *_BETA, "--n", "600", "--outputs", "law,Z,free-energy,clt,ldp",
         "--n-grid", "150,300,450,600"], {
            "clt.json": "32a5b4dab133cf8b",
            "free_energy.csv": "58d31f693a75db4d",
            "law.csv": "6472a7abcf7c5830",
            "ldp.csv": "476c8358ac635ec4",
            "manifest.json": "a452bd3d291fe379",
            "partition.json": "6995c9daae53e3b6",
        }),
    "bench-exact-big": (
        ["exact", *_BETA, "--n", "1000", "--cap-override", "1000",
         "--outputs", "Z,clt,ldp"], {
            "clt.json": "20e7594990169b5f",
            "ldp.csv": "ebe14958bf9375bf",
            "manifest.json": "57c7879b2fe60fef",
            "partition.json": "28fe125b0eff62a1",
        }),
    "bench-continuous-t160": (
        ["continuous", *_BETA, "--t", "160", "--outputs", "Z,range-clt,endpoint-clt",
         "--grid=-1,0,1"], {
            "endpoint_clt.csv": "a71cde0b1a2980e1",
            "manifest.json": "99a7a0db3038ff5a",
            "partition_continuous.json": "40cee70cc9231bd8",
            "range_clt.csv": "672f0be15ba7eadb",
        }),
    # beta = 0 runs the walk with no drift: plain Monte Carlo, unit spread
    "mc-tilted-beta0-endpoint-cdf": (
        ["mc", "tilted", "--beta", "0", "--n", "60", "--observable", "endpoint_cdf",
         "--c-point", "0.5", "--seed", "3", "--samples", "20000"], {
            "estimate.json": "1fb26e5d48e35bfa",
            "manifest.json": "fcb29428ee7e8dfe",
        }),
    "mc-corollary-d2": (
        ["mc", "corollary", *_BETA, "--d", "2", "--n", "50", "--seed", "3",
         "--samples", "20000"], {
            "corollary.json": "66a34671fd34ded9",
            "manifest.json": "744d7812be6052c5",
        }),
    "bench-mc-brownian-1-thread": ([*_BROWNIAN, "--threads", "1"], {
        **_BROWNIAN_FILES, "manifest.json": "e22f2d90d320b0b3"}),
    "bench-mc-brownian-2-threads": ([*_BROWNIAN, "--threads", "2"], {
        **_BROWNIAN_FILES, "manifest.json": "cdce2c8eb6d38519"}),
}


@pytest.mark.parametrize("command", ARTIFACTS)
def test_artifacts_keep_their_bytes(tmp_path, command):
    argv, expected = ARTIFACTS[command]
    out = tmp_path / "run"
    assert main([*argv, "--out", str(out)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16]
           for p in out.iterdir()}
    assert got == expected
