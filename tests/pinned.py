"""Every pinned output: the commands that write it and the sha256 of its bytes.

Equal digests mean a change left every answer and every byte the package
writes as it was. ``PINS`` is the one table, the concatenation of its
groups: ``CLI_20K``, ``DRAW_SCM`` and ``BENCHMARK_SCALE``.
``test_pinned.py`` checks the whole table; ``test_cli.py`` and
``test_simulate.py`` check the first two groups. Through the session's
``pinned_sha256`` fixture, each command runs once a session, in one fresh
directory, whichever test asks for it first.

A CLI command is an argv for ``dohazard.cli.main`` with ``--quiet`` added;
a dict in it stands for a JSON file of that dict. An entry lists every
command its output needs, so that one entry can be rerun alone. A
``DrawScm`` command is one ``truth.draw_scm`` call, and its outputs are the
columns x, z, u and failure, each as its float64 bytes (a pinned None: the
call returns no such column).

To re-pin, edit the sha256 of each entry that moved, and say in CHANGES.md
why it moved. The digests hold for ``PINNED_TOOLCHAIN`` only.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import dohazard as dh

from dohazard import cli

from conftest import make_backdoor_config, make_frontdoor_config
from truth import draw_scm

# numpy's exp, log, log1p, expm1 and power give other last bits where its
# AVX512 loops are not dispatched.
PINNED_TOOLCHAIN = "numpy 2.4.6, scipy 1.17.1, AVX512 loops dispatched"


def toolchain():
    """The numpy and scipy versions, and whether numpy dispatches its
    AVX512 loops on this CPU (the dispatch targets it takes, in brackets)."""
    import scipy

    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    taken = [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]
    avx512 = any(target == "X86_V4" or target.startswith("AVX512") for target in taken)
    return (f"numpy {np.__version__}, scipy {scipy.__version__}, "
            f"AVX512 loops {'dispatched' if avx512 else 'not dispatched'} [{' '.join(taken)}]")


def toolchain_note():
    """What a digest mismatch is read against: the pinned toolchain and
    this run's."""
    return f"they are pinned for {PINNED_TOOLCHAIN}, and this run has {toolchain()}"


@dataclass(frozen=True)
class DrawScm:
    """The call truth.draw_scm(config, n, seed)."""

    config: dh.ScenarioConfig
    n: int
    seed: int


@dataclass(frozen=True)
class Pin:
    name: str
    command: tuple | DrawScm  # CLI argvs, run in order, or one draw_scm call
    output: str               # the file the last argv writes, or a draw_scm column
    sha256: str | None        # None: the draw_scm column is None


def experiment(scenario: dh.ScenarioConfig, contrasts, horizon_grid, oracle_n) -> dict:
    return {"scenario": scenario.to_dict(), "contrasts": contrasts, "horizon_grid": horizon_grid, "oracle_n": oracle_n}


# The conftest scenarios at n=20_000 through every subcommand.
BACKDOOR = make_backdoor_config(n_subjects=20_000)
FRONTDOOR = make_frontdoor_config(n_subjects=20_000)
SIMULATE = {
    "backdoor": ("simulate", BACKDOOR.to_dict(), "--out", "backdoor.csv"),
    "frontdoor": ("simulate", FRONTDOOR.to_dict(), "--out", "frontdoor.csv"),
}
FIT_BACKDOOR = ("fit", "backdoor.csv", "--out", "backdoor_fit.json")
EXPERIMENT_20K = {
    dag: ("experiment", experiment(config, [[1, 0], [2, -1]], [5, 10], 20_000), "--out-dir", f"{dag}_20k")
    for dag, config in (("backdoor", BACKDOOR), ("frontdoor", FRONTDOOR))
}


def estimate(dag: str, contrast: str, t: str, sha256: str, fit: bool = False) -> Pin:
    """The backdoor or frontdoor command on its n=20_000 cohort, with the
    backdoor fit read from backdoor_fit.json when fit is set."""
    name = " ".join([dag, *["--fit"] * fit, contrast, f"t={t}"])
    out = name.replace(" ", "_") + ".json"
    extra = ("--fit", "backdoor_fit.json") if fit else ()
    argv = (dag, f"{dag}.csv", "--contrast", contrast, "--t", t, *extra, "--out", out)
    return Pin(name, (SIMULATE[dag], *[FIT_BACKDOOR] * fit, argv), out, sha256)


def oracle(dag: str, arms: tuple, sha256: str) -> Pin:
    """The oracle command on the n=20_000 scenario, 20_000 subjects per arm."""
    name = " ".join(["oracle", dag, *arms])
    out = name.replace(" ", "_") + ".json"
    return Pin(name, (("oracle", SIMULATE[dag][1], *arms, "--n", "20000", "--out", out),), out, sha256)


def draw_scm_pins(dag: str, config: dh.ScenarioConfig, **sha256) -> tuple:
    """One pin per named column of truth.draw_scm(config, 40_000, config.seed)."""
    call = DrawScm(config, 40_000, config.seed)
    return tuple(Pin(f"draw_scm {dag} {column}", call, column, digest) for column, digest in sha256.items())


# The benchmark's scenarios (perfbench/workloads.py) and a days-scale one.
# - save_dataset formats floats in numpy and hands the few values its exact
#   path does not take to Python's '%.17g' %. 97.6% of the n=1e6 cohort's
#   times are the horizon, which the writer formats once per column and
#   copies, so its CSV guards that tied-time path; the experiment_frontdoor
#   cohort (u_latent, random censoring) guards it where 78% of the times tie.
#   Values from 10 up are laid out byte by byte, and 58.3% of the days-scale
#   cohort's rows are untied times from 10 up.
# - The Cox fit sorts only the rows below the largest time, sums the rows
#   tied there pairwise, chunk by chunk, and sums the linear predictor
#   column by column with no BLAS, as the standardization does. So the fits
#   (97.6%, 78% and 40% tied) and the n=1e6 backdoor file keep their bytes
#   under one BLAS thread, as on the benchmark's pinned CPU, and under the
#   default thread count; CI runs this table under both.
# - The oracle draws its noise once per pass and counts every arm and
#   every compared pair from it, on the cumulative-hazard scale with a
#   Weibull baseline, so both experiments keep the bytes one draw per arm
#   gives them, with the paired SEs of the ratio and PAF rows.
COHORT_1E6 = make_backdoor_config(n_subjects=1_000_000)
EXPERIMENT_FRONTDOOR = make_frontdoor_config(
    n_subjects=200_000, baseline_hazard=dh.WeibullHazard(1.5, 120.0), censor_rate=0.02
)
DAYS = make_backdoor_config(
    n_subjects=200_000, seed=11, baseline_hazard=dh.WeibullHazard(1.5, 1200.0), horizon_t=365.0, censor_rate=0.002
)
SIMULATE_1E6 = ("simulate", COHORT_1E6.to_dict(), "--out", "cohort_1e6.csv")
FIT_1E6 = ("fit", "cohort_1e6.csv", "--out", "cohort_1e6_fit.json")
SIMULATE_FD = ("simulate", EXPERIMENT_FRONTDOOR.to_dict(), "--out", "experiment_frontdoor.csv")
SIMULATE_DAYS = ("simulate", DAYS.to_dict(), "--out", "days.csv")
BACKDOOR_RUN = ("experiment", experiment(make_backdoor_config(), [[1, 0], [2, 0], [-1, 0]], [2.5, 5, 7.5, 10], 200_000),
                "--out-dir", "experiment_backdoor")
FRONTDOOR_RUN = ("experiment", experiment(EXPERIMENT_FRONTDOOR, [[1, 0]], [10], 1_000_000),
                 "--out-dir", "experiment_frontdoor")

# Every subcommand's outputs on those n=20_000 scenarios.
CLI_20K = (
    Pin("simulate backdoor cohort.csv", (SIMULATE["backdoor"],), "backdoor.csv",
        "ea5c55f8b84d75989fcebb1d647be27531f7a8f274ea5b6549b096ef64917eba"),
    Pin("simulate frontdoor cohort.csv", (SIMULATE["frontdoor"],), "frontdoor.csv",
        "d704a4a7db273d2967b8c171c603b49c3a74017895d29041adbafa3744c2284d"),
    estimate("backdoor", "1,0", "10", "6fee546065d239f7543a0a84ecb284b65ed72e204ee1469e533dc755ae18d9f8"),
    estimate("backdoor", "2,-1", "5", "44bee305689d1267bcf68ff7f0e906ae714469060fc493e2784141790773a331"),
    estimate("backdoor", "1,0", "10", "6fee546065d239f7543a0a84ecb284b65ed72e204ee1469e533dc755ae18d9f8", fit=True),
    estimate("backdoor", "2,-1", "5", "44bee305689d1267bcf68ff7f0e906ae714469060fc493e2784141790773a331", fit=True),
    estimate("frontdoor", "1,0", "10", "1a3306b823b7c90e421d97652a3879b1e45fa1575164d88fa59f5ee2a5e11b4b"),
    estimate("frontdoor", "2,-1", "5", "0d572dcca37c7f8cc44e787ea560a7abc22b01e71c15185faac71aac056ee24c"),
    oracle("backdoor", ("--x", "1"), "5dcb31fce7b5ba6ae24bad054f92c60594fd87b71ea1893307f94c1689fbf05f"),
    oracle("backdoor", ("--x", "1", "--x0", "0"), "3ea3285623e1d54360e90fdd853e9ae7c4603f6e60390c5cdafb87fd7b199baf"),
    oracle("backdoor", ("--x", "2", "--x0", "-1"), "5c25fb35a330021c50404e1aaa8b23dd214c844bf31e304b02b8f4baaafd75a7"),
    oracle("frontdoor", ("--x", "1"), "5aabc3c1fa0af91d556d6a03e62410173c675ef59ae0f9cb783c29881064bfc6"),
    oracle("frontdoor", ("--x", "1", "--x0", "0"), "cf2e0cb7cef0ce4a021fc0bd1632b333c5325d4de636f3aac91bc39b3ec9a34f"),
    oracle("frontdoor", ("--x", "2", "--x0", "-1"), "a179a02e8d78f7519a62efbd602ca93c2fce013ec2b1687abd93e811716f2641"),
    Pin("experiment backdoor estimates.csv", (EXPERIMENT_20K["backdoor"],), "backdoor_20k/estimates.csv",
        "3b1fa69c9f0aee79014c6cf2390ee76f40629050e0c4447c0008ca77314500f7"),
    Pin("experiment backdoor report.json", (EXPERIMENT_20K["backdoor"],), "backdoor_20k/report.json",
        "6af8ae912359327b6db1c78afbbea0b528af6bfea991c65f88472f964a0dc8a0"),
    Pin("experiment frontdoor estimates.csv", (EXPERIMENT_20K["frontdoor"],), "frontdoor_20k/estimates.csv",
        "c173e55d18f4bf6ab5f6943002d685ab1ea50fdfe5cc561b4d041cfb4b297f8f"),
    Pin("experiment frontdoor report.json", (EXPERIMENT_20K["frontdoor"],), "frontdoor_20k/report.json",
        "383a6e734cc1c32c8133208ca8f6f9309fac7b53b6714f85771b278f832519bb"),
)

# The structural model's columns, frozen from the whole-array draw before
# it was drawn in blocks; the backdoor model has no U column.
DRAW_SCM = {
    "backdoor": draw_scm_pins("backdoor", make_backdoor_config(),
                   x="644ff50c4c20d8f66eccb2c88732e6cb3651e07e6c74569443a54d2cdbb61b41",
                   z="c430b9eeef8db172d01efc23f97bb035baa8230534fd81485e070e8d4a658b72",
                   u=None,
                   failure="897d9084851ecfea1d7db38faa41a309de8d33ad0d7ea119814fcda84cf61ec6"),
    "frontdoor": draw_scm_pins("frontdoor", make_frontdoor_config(),
                   x="3a4c6acb4bdf7267428419d1959976ca03314d447d41a411bb05779baebb81e4",
                   z="00a820a4b85e94d20e82467686b8645dd779c9e9a5b0a13c9c3c3079c76a14a5",
                   u="82180f8f2ce8fb42e4253f6a00179f18256197d96ccdc16fec7486e64ddec8e8",
                   failure="660a776d45b4c9b26a71afef0fe530552441c23f1740f9a769120be5a401bbc4"),
}

# The benchmark's scenarios and the days-scale one, described above.
BENCHMARK_SCALE = (
    Pin("cohort_1e6 cohort.csv", (SIMULATE_1E6,), "cohort_1e6.csv",
        "770da9512d445c0a9bb3447b6377707709e79953ec653ca56ba78998f3259c0e"),
    Pin("cohort_1e6 fit.json", (SIMULATE_1E6, FIT_1E6), "cohort_1e6_fit.json",
        "4185e012ab7e61977d407a6f18921bd763ee6d967a230cb080613ef25e166d76"),
    Pin("cohort_1e6 backdoor.json",
        (SIMULATE_1E6, FIT_1E6, ("backdoor", "cohort_1e6.csv", "--fit", "cohort_1e6_fit.json", "--contrast", "1,0",
                                 "--t", "10", "--out", "cohort_1e6_backdoor.json")),
        "cohort_1e6_backdoor.json", "bc13ce6002931f7f3414798510a88529a532ee9d1bb3630d2a21c35f6a86f466"),
    Pin("experiment_frontdoor cohort.csv", (SIMULATE_FD,), "experiment_frontdoor.csv",
        "b2f52c670320970a8d9dda0bc878e5a6658a9a76c178194a801abaad8849e865"),
    Pin("experiment_frontdoor fit.json",
        (SIMULATE_FD, ("fit", "experiment_frontdoor.csv", "--out", "experiment_frontdoor_fit.json")),
        "experiment_frontdoor_fit.json", "5d6a3c2f381d4f856e52bc9b86cffd354e8e5029c395682f468503658585e09e"),
    Pin("days-scale cohort.csv", (SIMULATE_DAYS,), "days.csv",
        "664cb1c0ee238d190ba854cf24d504316fa23327636f41e83fcdd1834c04b44e"),
    Pin("days-scale fit.json", (SIMULATE_DAYS, ("fit", "days.csv", "--out", "days_fit.json")), "days_fit.json",
        "4d53feb1514340d9845aa787a9a529bc9d0ca01c3f7950bddbdc5bcccb0383d8"),
    Pin("experiment_backdoor estimates.csv", (BACKDOOR_RUN,), "experiment_backdoor/estimates.csv",
        "d724f32bd8e3b510b0cd4c1e709bbbc8703acc04613e20dc05ce376e4b492eb1"),
    Pin("experiment_backdoor report.json", (BACKDOOR_RUN,), "experiment_backdoor/report.json",
        "e2b2818d8079519d1552ea6b527f4d3d662e2b7fa7cd3b7b505f97093b17d8de"),
    Pin("experiment_frontdoor estimates.csv", (FRONTDOOR_RUN,), "experiment_frontdoor/estimates.csv",
        "b71e91b98a7472abee611ed35019dce8493ea8a7b0d841fad6d6a117ee0b0aea"),
    Pin("experiment_frontdoor report.json", (FRONTDOOR_RUN,), "experiment_frontdoor/report.json",
        "f9c4102d0c05742084fad668c320fe1ac0a065ce6350a6daf26e77d9629f5239"),
)

PINS = (*CLI_20K, *DRAW_SCM["backdoor"], *DRAW_SCM["frontdoor"], *BENCHMARK_SCALE)


class Outputs:
    """The sha256 of pinned outputs, made in one directory, work. Each
    distinct command runs once, however many pins and tests need it."""

    def __init__(self, work: Path):
        self.work = work
        self.ran = set()
        self.drawn = {}

    def argv(self, argv) -> list:
        """argv as strings, each dict written to a JSON file in work named by
        the hash of its text."""
        out = []
        for arg in argv:
            if isinstance(arg, dict):
                text = json.dumps(arg, indent=2)
                path = self.work / f"{hashlib.sha256(text.encode()).hexdigest()[:16]}.json"
                path.write_text(text)
                arg = path.name
            out.append(str(arg))
        return out

    def sha256(self, pin: Pin) -> str:
        if isinstance(pin.command, DrawScm):
            call = pin.command
            if call not in self.drawn:
                self.drawn[call] = dict(zip(("x", "z", "u", "failure"), draw_scm(call.config, call.n, call.seed)))
            column = self.drawn[call][pin.output]
            return None if column is None else hashlib.sha256(column.tobytes()).hexdigest()
        cwd = os.getcwd()
        os.chdir(self.work)
        try:
            for argv in pin.command:
                argv = self.argv(argv)
                if tuple(argv) not in self.ran:
                    assert cli.main([*argv, "--quiet"]) == 0, (pin.name, argv)
                    self.ran.add(tuple(argv))
            return hashlib.sha256(Path(pin.output).read_bytes()).hexdigest()
        finally:
            os.chdir(cwd)


def check(pins, sha256) -> None:
    """Fail naming every pin whose output's sha256 (by sha256(pin)) differs
    from its pinned one, with toolchain_note()."""
    differ = [f"  {pin.name}: pinned {pin.sha256}, got {got}" for pin in pins if (got := sha256(pin)) != pin.sha256]
    assert not differ, "\n".join(
        [f"{len(differ)} of {len(pins)} outputs differ from their pinned digests:", *differ, toolchain_note()]
    )
