"""Seeded argv generators for the benchmark workloads.

Mixes and parameter ranges live in design.json.  A workload's reports come
in blocks: each block holds every report kind exactly as often as the mix
says, in a seeded order, so the mix is the same in every run and only the
drawn parameters depend on the seed.  A range is either a list, drawn from
uniformly, or {"uniform": [lo, hi]}, drawn continuously and written with
four decimals.  The `--ell` of `slag check` is drawn by stratum: each block
holds exactly "low_per_block" draws from the low list, so every run of the
same number of blocks makes the same number of low-ell draws, whatever the
seed.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

DESIGN = json.loads(Path(__file__).with_name("design.json").read_text())
NO_TIMESTAMP = "--no-timestamp"


def _slag_b0(k: int, cycle: str) -> str:
    """b0 = -k*m2/(2*m1): the cycle C_{m1,m2} is then special Lagrangian."""
    m1, m2 = (int(v) for v in cycle.split(","))
    return str(Fraction(-k * m2, 2 * m1))


def _params(v: dict) -> list[str]:
    argv = ["--k", str(v["k"]), "--eps", v["eps"]]
    if "b0" in v:
        argv += ["--b0", v["b0"]]
    if v.get("kappa1", "0") != "0":
        argv += ["--kappa1", v["kappa1"]]
    return argv


def _glue(v: dict) -> list[str]:
    v0c, vomc = v["v0c_vomc"]
    return ["--k", str(v["k"]), "--eps", v["eps"], "--r", v["r"], "--s", v["s"],
            "--rho-min", v["rho_min"], "--v0c", v0c, "--vomc", vomc]


def _classify(v: dict) -> list[str]:
    """One draw of the decay class named by v["class"]."""
    argv = ["semiflat", "classify-translation"] + _params(v)
    real = f"{v['h_re']}+0i"
    cplx = f"{v['h_re']}+{v['h_im']}i"
    argv += {"not_uniform": ["--pole", "--h0", real],
             "bounded_difference": ["--section-b", v["section_b"], "--h0", cplx],
             "power_decay": ["--h0", cplx],
             "exp_decay": ["--h0", real]}[v["class"]]
    if v["h1"] != "none":
        argv += ["--h1", v["h1"]]
    return argv


CLASSIFY_CLASSES = ("not_uniform", "bounded_difference", "power_decay", "exp_decay")

# report kind -> argv builder from one set of drawn values
BUILDERS = {
    "semiflat pair": lambda v: ["semiflat", "pair"] + _params(v) + ["--cycle", v["cycle"]],
    "semiflat residual": lambda v: ["semiflat", "residual"] + _params(v),
    "slag check": lambda v: ["slag", "check", "--k", str(v["k"]), "--eps", v["eps"],
                             "--b0", _slag_b0(v["k"], v["cycle"]),
                             "--cycle", v["cycle"], "--ell", v["ell"]],
    "hkrot": lambda v: ["hkrot", "--k", str(v["k"]), "--tau", f"{v['tau_re']}+{v['tau_im']}i"],
    "glue potential": lambda v: ["glue", "potential"] + _params(v) + ["--rho", v["rho"]],
    "glue positivity": lambda v: ["glue", "positivity"] + _glue(v) + ["--alpha", v["alpha"]],
    "glue solve-alpha": lambda v: ["glue", "solve-alpha"] + _glue(v) + ["--tprime", v["tprime"]],
    "semiflat classify-translation": _classify,
    "semiflat curvature": lambda v: ["semiflat", "curvature"] + _params(v),
    "slag pi-decay": lambda v: ["slag", "pi-decay", "--k", str(v["k"]), "--eps", v["eps"],
                                "--b0", _slag_b0(v["k"], v["cycle"]),
                                "--cycle", v["cycle"]],
}


def _draw(rng: random.Random, spec):
    if isinstance(spec, dict):
        lo, hi = spec["uniform"]
        return f"{rng.uniform(lo, hi):.4f}"
    return rng.choice(spec)


def _kinds(workload: str) -> list[str]:
    mix = DESIGN["workloads"][workload]["mix"]
    return [kind for kind, count in mix.items() for _ in range(count)]


def blocks(workload: str, seed: int):
    """Endless stream of blocks (lists of argv) for one workload and seed."""
    rng = random.Random(f"{workload}/{seed}")
    kinds = _kinds(workload)
    classes, ell_strata = [], []
    ell = DESIGN["slag_check_ell"]
    while True:
        order = kinds[:]
        rng.shuffle(order)
        block = []
        for kind in order:
            values = {name: _draw(rng, spec) for name, spec in DESIGN["ranges"][kind].items()}
            if kind == "semiflat classify-translation":
                if not classes:  # every decay class once per four classify draws
                    classes = list(CLASSIFY_CLASSES)
                    rng.shuffle(classes)
                values["class"] = classes.pop()
            if kind == "slag check":
                if not ell_strata:  # refilled once per block
                    ell_strata = ["low"] * ell["low_per_block"] \
                        + ["high"] * (kinds.count(kind) - ell["low_per_block"])
                    rng.shuffle(ell_strata)
                values["ell"] = rng.choice(ell[ell_strata.pop()])
            block.append(BUILDERS[kind](values) + [NO_TIMESTAMP])
        yield block


def block_size(workload: str) -> int:
    return len(_kinds(workload))


def enumerate_kind(kind: str):
    """Every argv a kind whose ranges are all lists can draw."""
    ranges = DESIGN["ranges"][kind]
    names = list(ranges)
    extra = [{"class": c} for c in CLASSIFY_CLASSES] \
        if kind == "semiflat classify-translation" else [{}]
    for combo in itertools.product(*(ranges[n] for n in names)):
        for more in extra:
            yield BUILDERS[kind]({**dict(zip(names, combo)), **more}) + [NO_TIMESTAMP]
