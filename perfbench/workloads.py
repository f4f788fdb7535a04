"""The benchmark's workloads: which nbqc commands a pass runs, and the
checks each command's output must pass.

A pass is a fixed list of commands that depends only on the workload seed;
running it twice does the same work and must write the same bytes.  Campaigns set
``--min-block-errors`` above ``--max-frames`` so every simulate command
decodes exactly its frame budget.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

FIXTURES = Path(__file__).resolve().parent / "fixtures"

INF = math.inf


@dataclass(frozen=True)
class Ensemble:
    fixture: str
    Z: int
    q: int
    ace_b: str
    ace_nb: str

    @property
    def nb_depth(self) -> int:
        return 2 * len(self.ace_nb.split(","))


ENSEMBLES = {
    "gf16": Ensemble("proto_gf16_z9.txt", 9, 16,
                     "inf,inf,inf,4", "inf,inf,inf,inf,inf,4"),
    "gf8": Ensemble("proto_gf8_z21.txt", 21, 8,
                    "inf,inf,inf,6,2", "inf,inf,inf,inf,6,2"),
}

# Optimizer seed of the reference codes built in set-up.
REFERENCE_SEED = 1
SEARCH_DEPTH = 12
# What the depth-12 search must reach on its fixed seeds.  The greedy
# heuristic does not guarantee it on every seed (see README.md).
SEARCH_FLOOR_B = "inf,inf,inf,4,1,1"
SEARCH_FLOOR_NB = "inf,inf,inf,inf,inf,4"


class CheckFailed(Exception):
    pass


@dataclass
class Command:
    """One CLI invocation of a pass and the check on what it produced.

    ``check(stdout)`` raises :class:`CheckFailed` on a wrong output and
    returns the output bytes, by name, whose sha256 the run records.
    """

    key: str
    argv: list[str]
    check: Callable[[str], dict[str, bytes]]


class Workload:
    """A fixed pass of commands that depends only on the workload seed."""

    # Ensemble whose reference code set-up builds; campaigns decode it, and
    # on the other workloads it warms up the construction path before timing.
    ensemble = "gf16"

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.reference = workdir / f"reference-{self.ensemble}.json"
        self.provenance: dict = {"reference_seed": REFERENCE_SEED,
                                 "reference_ensemble": self.ensemble}
        # spectra each construct printed, by descriptor name
        self.achieved: dict[str, dict] = {}

    def ensembles(self) -> list[str]:
        return [self.ensemble]

    def setup(self, run) -> None:
        """Work before the first timed command: parse the ensembles' base
        matrices and build the reference code with ``nbqc construct``."""
        from nbqc.io_formats import read_base_matrix
        from nbqc.protograph import from_base_matrix

        for key in self.ensembles():
            from_base_matrix(read_base_matrix(FIXTURES / ENSEMBLES[key].fixture))
        ens = ENSEMBLES[self.ensemble]
        run(Command("reference",
                    _construct_argv(ens, REFERENCE_SEED, self.reference),
                    _construct_check(self.reference, ens.ace_b, ens.ace_nb,
                                     self.achieved)))

    def commands(self) -> list[Command]:
        raise NotImplementedError

    def named_metrics(self, pass_times: dict[str, float]) -> dict:
        """Named per-workload metrics of one pass, from per-key mean times."""
        raise NotImplementedError


def derive_seed(seed: int, tag: str, i: int = 0) -> int:
    """A 32-bit seed for one use, stable across Python versions."""
    digest = hashlib.sha256(f"{seed}/{tag}/{i}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def parse_spectrum(text: str) -> list[float]:
    return [INF if tok.strip() == "inf" else int(tok)
            for tok in text.strip().strip("()").split(",")]


def reaches(achieved: list[float], target: list[float]) -> bool:
    return (len(achieved) >= len(target)
            and all(a >= t for a, t in zip(achieved, target)))


def _printed_spectra(stdout: str) -> tuple[list[float], list[float]]:
    """Binary and NB spectra from the lines ``nbqc construct`` prints."""
    found = {}
    for line in stdout.splitlines():
        for kind in ("binary", "nb"):
            if line.startswith(f"{kind} spectrum (depth "):
                found[kind] = parse_spectrum(line.split(":", 1)[1])
    if set(found) != {"binary", "nb"}:
        raise CheckFailed(f"construct printed no spectra: {stdout!r}")
    return found["binary"], found["nb"]


def _construct_check(out: Path, floor_b: str, floor_nb: str, seen: dict):
    def check(stdout: str) -> dict[str, bytes]:
        binary, nb = _printed_spectra(stdout)
        seen[out.name] = {"binary": _json_spectrum(binary),
                          "nb": _json_spectrum(nb)}
        if not reaches(binary, parse_spectrum(floor_b)):
            raise CheckFailed(f"binary spectrum {binary} misses {floor_b}")
        if not reaches(nb, parse_spectrum(floor_nb)):
            raise CheckFailed(f"NB spectrum {nb} misses {floor_nb}")
        return {"descriptor": out.read_bytes()}
    return check


def _json_spectrum(values: list[float]) -> list:
    return ["inf" if v == INF else v for v in values]


def _spectrum_check(desc: Path, ens: Ensemble, seen: dict):
    def check(stdout: str) -> dict[str, bytes]:
        # The command exits 0 only after load_descriptor re-verified the
        # stored spectra, so a zero exit is the reload-with-verification check.
        obj = json.loads(stdout)
        values = [INF if v == "inf" else v for v in obj["values"]]
        if obj["depth"] != ens.nb_depth:
            raise CheckFailed(f"spectrum depth {obj['depth']}")
        if not reaches(values, parse_spectrum(ens.ace_nb)):
            raise CheckFailed(f"NB spectrum {values} misses {ens.ace_nb}")
        if obj["values"] != seen[desc.name]["nb"]:
            raise CheckFailed(f"reloaded NB spectrum {obj['values']} differs "
                              f"from the constructed {seen[desc.name]['nb']}")
        return {"spectrum_json": stdout.encode()}
    return check


def _campaign_check(prefix: Path, frames: int, mode: str):
    def check(stdout: str) -> dict[str, bytes]:
        csv_bytes = prefix.with_suffix(".csv").read_bytes()
        json_bytes = prefix.with_suffix(".json").read_bytes()
        rows = list(csv.DictReader(io.StringIO(csv_bytes.decode())))
        obj = json.loads(json_bytes)
        if len(rows) != 1 or int(rows[0]["frames"]) != frames:
            raise CheckFailed(f"CSV rows {rows} do not hold {frames} frames")
        point = obj["points"][0]
        if point["frames"] != frames or len(obj["points"]) != 1:
            raise CheckFailed(f"JSON points {obj['points']} != budget")
        if int(rows[0]["block_errors"]) != point["block_errors"]:
            raise CheckFailed("CSV and JSON block errors disagree")
        if (obj["info_positions"] is None) != (mode == "zero"):
            raise CheckFailed("info_positions do not match the mode")
        return {"campaign_csv": csv_bytes, "campaign_json": json_bytes}
    return check


def _construct_argv(ens: Ensemble, seed: int, out: Path) -> list[str]:
    return ["construct", "--proto", str(FIXTURES / ens.fixture),
            "--Z", str(ens.Z), "--q", str(ens.q),
            "--ace-b", ens.ace_b, "--ace-nb", ens.ace_nb,
            "--seed", str(seed), "--out", str(out)]


class ConstructWorkload(Workload):
    """Construct then re-verify codes of both ensembles for several seeds."""

    n_seeds = 4

    def __init__(self, *args):
        super().__init__(*args)
        self.seeds = [derive_seed(self.seed, "construct", i)
                      for i in range(self.n_seeds)]
        self.provenance["optimizer_seeds"] = self.seeds

    def ensembles(self):
        return list(ENSEMBLES)

    def commands(self):
        cmds = []
        for seed in self.seeds:
            for key, ens in ENSEMBLES.items():
                out = self.workdir / f"{key}-{seed}.json"
                cmds.append(Command(
                    f"construct_{key}", _construct_argv(ens, seed, out),
                    _construct_check(out, ens.ace_b, ens.ace_nb,
                                     self.achieved)))
                cmds.append(Command(
                    f"verify_{key}",
                    ["spectrum", str(out), "--depth", str(ens.nb_depth),
                     "--nb", "--json"],
                    _spectrum_check(out, ens, self.achieved)))
        return cmds

    def named_metrics(self, t):
        return {f"{kind}_{key}_s": (t[f"{kind}_{key}"], "s")
                for kind in ("construct", "verify") for key in ENSEMBLES}


class SearchWorkload(Workload):
    """Greedy ``--ace-* auto`` search at depth 12 on GF(16)/Z=9.

    The optimizer seeds are fixed and the workload seed does not change
    them.  Over 15 derived seeds one search took 4.7 s to 10.8 s on a
    2-core x86-64 VM, far more spread than a run of a few searches can
    average out.
    """

    seeds = (1, 2, 3)

    def __init__(self, *args):
        super().__init__(*args)
        self.provenance.update(optimizer_seeds=list(self.seeds),
                               depth=SEARCH_DEPTH)

    def commands(self):
        cmds = []
        for seed in self.seeds:
            out = self.workdir / f"search-{seed}.json"
            argv = _construct_argv(ENSEMBLES["gf16"], seed, out)
            argv[argv.index("--ace-b") + 1] = "auto"
            argv[argv.index("--ace-nb") + 1] = "auto"
            argv += ["--depth", str(SEARCH_DEPTH)]
            cmds.append(Command(
                "search", argv,
                _construct_check(out, SEARCH_FLOOR_B, SEARCH_FLOOR_NB,
                                 self.achieved)))
        return cmds

    def named_metrics(self, t):
        return {"search_s": (t["search"], "s")}


class CampaignWorkload(Workload):
    """``nbqc simulate`` on the reference code at one operating point."""

    snr_db = "1.4"
    mode = "zero"
    frames = 1000

    def __init__(self, *args):
        super().__init__(*args)
        self.sim_seed = derive_seed(self.seed, self.name)
        self.provenance.update(
            sim_seed=self.sim_seed, snr_db=self.snr_db, mode=self.mode,
            max_frames=self.frames, min_block_errors=self.frames + 1)

    def commands(self):
        prefix = self.workdir / "campaign"
        argv = ["simulate", str(self.reference), "--snr", self.snr_db,
                "--max-frames", str(self.frames),
                "--min-block-errors", str(self.frames + 1),
                "--seed", str(self.sim_seed), "--mode", self.mode,
                "--workers", "1", "--out", str(prefix)]
        return [Command("simulate", argv,
                        _campaign_check(prefix, self.frames, self.mode))]

    def named_metrics(self, t):
        return {"frames_per_s": (self.frames / t["simulate"], "frames/s")}


class HighSnrCampaignWorkload(CampaignWorkload):
    ensemble = "gf8"
    snr_db = "2.0"
    mode = "random"
    frames = 300


WORKLOADS = {
    "construct": ConstructWorkload,
    "search": SearchWorkload,
    "campaign": CampaignWorkload,
    "campaign-hisnr": HighSnrCampaignWorkload,
}
