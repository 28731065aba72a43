"""Workload definitions for the cmarr benchmark.

Each workload is a list of `cmarr analyze` jobs.  A job names a built-in
base arrangement, an optional set of hyperplanes to delete (indices into the
generator's own order) and the analyze flags.  The seed picks, per job, a
random element g of the base's block-permutation group and a random
hyperplane order: the job deletes g(D) instead of D and its file lists the
remaining hyperplanes in the shuffled order.  Every base is stable under
its group, so g maps A minus D onto A minus g(D): each seed gives an
isomorphic arrangement, hence the same lattices and the same exact
answers, while the bytes the program reads differ (and the freeness search,
which follows the hyperplane order, visits more or fewer nodes).

This module is imported by bench/run.py, which must not import
cmarr; only `emit_inputs` touches cmarr, and it runs in the set-up child.
"""

import random

DEFAULT_SEED = 1

# Known invariants of the base arrangements, independent of hyperplane
# order: dimension, hyperplane count, Poincare coefficients (ascending),
# orbit sizes under the block-permutation group and that group's order.
# S_n and G8 values are the textbook products; the S3xS4 and wreath
# values are the ones cmarr 0.1.0 computes.  G8 is (1+t)(1+11t)(1+13t),
# coxeter-S_n is prod_{k<n} (1+kt) and S3xS4 is (1+t)(1+2t) * (1+t)(1+2t)(1+3t).
BASES = {
    "G8": dict(dim=3, n=25, weyl_order=24,
               poincare=(1, 25, 167, 143), orbits=(3, 4, 6, 12)),
    "coxeter-S6": dict(dim=5, n=15, weyl_order=720,
                       poincare=(1, 15, 85, 225, 274, 120), orbits=(15,)),
    "coxeter-S3xS4": dict(dim=5, n=9, weyl_order=144,
                          poincare=(1, 9, 31, 51, 40, 12), orbits=(3, 6)),
    "wreath-A3-2": dict(dim=4, n=19, weyl_order=48,
                        poincare=(1, 19, 125, 317, 210), orbits=(1, 6, 12)),
    "wreath-A3-3": dict(dim=4, n=31, weyl_order=48,
                        poincare=(1, 31, 329, 1289, 990),
                        orbits=(1, 6, 12, 12)),
    "wreath-A4-2": dict(dim=5, n=31, weyl_order=240,
                        poincare=(1, 31, 365, 1985, 4674, 3024),
                        orbits=(1, 10, 20)),
}

# Deletions, keyed by (base, deleted generator indices): the Poincare
# polynomial and freeness status of A minus D, which every g(D) shares.
DELETIONS = {
    ("G8", (2,)): ((1, 24, 155, 132), "InductivelyFree"),
    ("G8", (0, 2)): ((1, 23, 147, 125), "NotFree"),
    ("G8", (2, 4)): ((1, 23, 143, 121), "InductivelyFree"),
    ("coxeter-S6", (0,)): ((1, 14, 75, 190, 224, 96), "InductivelyFree"),
    ("coxeter-S6", (0, 1)): ((1, 13, 65, 155, 174, 72), "InductivelyFree"),
    ("wreath-A3-2", (7,)): ((1, 18, 113, 276, 180), "InductivelyFree"),
    ("wreath-A3-2", (1, 7)): ((1, 17, 103, 247, 160), "NotFree"),
}

BASE_STATUS = {"G8": "InductivelyFree", "coxeter-S6": "InductivelyFree",
               "wreath-A3-2": "InductivelyFree",
               "wreath-A3-3": "InductivelyFree"}

POINCARE_BIG = ["--poincare", "--e-count", "--stability", "--orbits"]
FREE = ["--poincare", "--free"]
# --ff-primes is dim + 2 for each base; see _crosscheck.
CROSSCHECK = ["--os", "--threads", "2", "--stability", "--orbits"]


def _crosscheck(base):
    return CROSSCHECK + ["--ff-primes", str(BASES[base]["dim"] + 2)]


# (job id, base, deleted generator indices, flags)
WORKLOADS = {
    # One large build_lattice and its O(F^2) Mobius loop do almost all the
    # work: the place where a faster elimination kernel or flat
    # representation shows.  No freeness, nbc or point counting runs.
    "poincare-big": [
        ("wreath-A4-2", "wreath-A4-2", (), POINCARE_BIG),
        ("wreath-A3-3", "wreath-A3-3", (), POINCARE_BIG),
    ],
    # The addition-deletion search: restriction lattices rebuilt from
    # scratch, the root lattice built twice (by cli and again by
    # inductive_freeness).  Deleting 1-2 hyperplanes keeps the search deep
    # and mixes verdicts; the budgeted job takes the Unknown path and its
    # localization scan.  wreath-A3-3 deletions are left out: each costs
    # about 8 s of lattice builds and no new freeness path.
    "free-search": [
        ("G8", "G8", (), FREE),
        ("coxeter-S6", "coxeter-S6", (), FREE),
        ("wreath-A3-2", "wreath-A3-2", (), FREE),
        ("wreath-A3-3", "wreath-A3-3", (), FREE),
        ("G8-del1", "G8", (2,), FREE),
        ("G8-del2a", "G8", (0, 2), FREE),
        ("G8-del2b", "G8", (2, 4), FREE),
        ("coxeter-S6-del1", "coxeter-S6", (0,), FREE),
        ("coxeter-S6-del2", "coxeter-S6", (0, 1), FREE),
        ("wreath-A3-2-del1", "wreath-A3-2", (7,), FREE),
        ("wreath-A3-2-del2", "wreath-A3-2", (1, 7), FREE),
        ("G8-budget5", "G8", (), ["--free", "--budget", "5"]),
    ],
    # The independent verification routes: circuits and nbc sets in osalg,
    # bad_primes and point counting in lattice, interpolation in intpoly,
    # and the only --threads path.  The lattices are small.
    "crosscheck": [
        ("coxeter-S6", "coxeter-S6", (), _crosscheck("coxeter-S6")),
        ("coxeter-S3xS4", "coxeter-S3xS4", (),
         _crosscheck("coxeter-S3xS4")),
        ("wreath-A3-2", "wreath-A3-2", (), _crosscheck("wreath-A3-2")),
        ("G8", "G8", (), _crosscheck("G8")),
        ("wreath-A3-3-basis", "wreath-A3-3", (), ["--os", "--os-basis"]),
    ],
}

# Per-layer counters that must be nonzero (the layer the workload stresses)
# and prefixes that must read 0 (the layers it bypasses) in a traced run.
STRESSES = {
    "poincare-big": ["lattice.build_calls", "lattice.flats"],
    "free-search": ["freeness.nodes", "freeness.sub_lattices",
                    "freeness.restriction_calls"],
    "crosscheck": ["osalg.circuits_calls", "osalg.nbc_sets",
                   "lattice.count_calls", "intpoly.interpolate_calls"],
}
BYPASSES = {
    "poincare-big": ["freeness.", "osalg."],
    "free-search": ["osalg."],
    "crosscheck": ["freeness."],
}


def expected(base, deleted):
    """(Poincare coefficients, freeness status) the job must report."""
    if deleted:
        return DELETIONS[(base, tuple(deleted))]
    return BASES[base]["poincare"], BASE_STATUS.get(base)


def _build_base(name):
    from cmarr.generators import gen_G8, gen_coxeter_namikawa, gen_wreath
    if name == "G8":
        return gen_G8()
    if name.startswith("coxeter-"):
        return gen_coxeter_namikawa(
            tuple(int(b) for b in name[len("coxeter-S"):].split("xS")))
    _, g, n = name.split("-")
    return gen_wreath(g, int(g[1:]) + 1, int(n))


def emit_inputs(workload, seed):
    """{job id: .arr text} for the workload's jobs under the seed."""
    from cmarr.arrfile import emit_arrangement
    from cmarr.lattice import Arrangement
    from cmarr.symmetry import BlockPermutation

    bases = {}
    out = {}
    for job_id, base, deleted, _ in WORKLOADS[workload]:
        if base not in bases:
            bases[base] = _build_base(base)
        arr = bases[base]
        rng = random.Random("%d/%s/%s" % (seed, workload, job_id))
        perms = []
        for m in arr.weyl:
            p = list(range(m))
            rng.shuffle(p)
            perms.append(p)
        g = BlockPermutation(arr.weyl, perms)
        gone = {g.apply_covector(arr.hyperplanes[i]) for i in deleted}
        keep = [i for i, c in enumerate(arr.hyperplanes) if c not in gone]
        rng.shuffle(keep)
        sub = Arrangement(arr.dim, [arr.hyperplanes[i] for i in keep],
                          label=job_id,
                          tags=[arr.tags[i] for i in keep],
                          weyl=arr.weyl)
        out[job_id] = emit_arrangement(sub)
    return out
