"""exact-ladder: one warm process climbing size ladders of the exact kernels.

Lattice reports on T(3,4,r) and its degenerate extension up to rank 85,
monodromy reports up to n = 56, cusp reports on random cycles of length
10 to 200, SL(2,Z) conjugacy up to trace 5e9, and the ten glued lattices.
Every cycle has a trace no earlier request used, so the process-wide
``_squarefree`` cache misses as it does for a user exploring new cusps.
No numpy work and no import cost is inside the timed region.

Every output is checked against facts the benchmark computes itself; the
library's own verification is only trusted for its certificates, which
must re-verify.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import common
import tracer as tr
from common import Request

ROUND_S = 15.0  # nominal round time on a 2-vCPU x86-64 host

LATTICE_RANKS = (25, 45, 65, 85)  # rank of T(3,4,r) is r + 5
MONODROMY_NS = (26, 36, 46, 56)  # rank of the Milnor lattice of (3,4,r) is r + 6
CYCLE_LENGTHS = (10, 25, 50, 100, 200)
CYCLES_PER_LENGTH = 2
TRACE_BINS = {
    "trace-1e3": (10**3, 2 * 10**3),
    "trace-1e6": (10**6, 2 * 10**6),
    "trace-5e9": (25 * 10**8, 5 * 10**9),
}
PAIRS_PER_BIN = 6
P, Q = 3, 4  # the lattice and monodromy ladders grow the third index


@dataclass
class State:
    sl2z: object
    quadlattice: object
    milnorfiber: object
    cuspdual: object
    k3glue: object
    table: tuple
    seen_traces: set = field(default_factory=set)


def setup() -> State:
    from tpqr import cuspdual, k3glue, milnorfiber, quadlattice, sl2z

    state = State(sl2z, quadlattice, milnorfiber, cuspdual, k3glue,
                  k3glue.strange_duality_table())
    # First calls of every kind of request, on inputs far below the ladder.
    _lattice(state, ("ttilde", 5, "S'"))
    _monodromy(state, 5)
    _cusp(state, (3, 2))
    state.seen_traces.add(_trace(_cycle_matrix((3, 2))))
    _conjugacy(state, ((2, 1, 1, 1), (1, 1, 1, 2)))
    _glued(state, 0)
    return state


# --------------------------------------------------------------------------
# Independent integer arithmetic for the checks and the input generator
# --------------------------------------------------------------------------


def _mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _inv(x):
    a, b, c, d = x
    return (d, -b, -c, a)


def _trace(x) -> int:
    return x[0] + x[3]


def _cycle_matrix(entries):
    out = (1, 0, 0, 1)
    for c in entries:
        out = _mul(out, (c, -1, 1, 0))
    return out


def _word_matrix(exponents):
    """R^e1 L^e2 R^e3 ... with R = (1 1; 0 1), L = (1 0; 1 1)."""
    out = (1, 0, 0, 1)
    for i, e in enumerate(exponents):
        out = _mul(out, (1, e, 0, 1) if i % 2 == 0 else (1, 0, e, 1))
    return out


def _monodromy_matrix(p, q, r):
    out = (1, 0, 0, 1)
    for n in (r, q, p):
        out = _mul(out, (n - 1, -1, 1, 0))
    return out


def _t_disc(p, q, r) -> int:
    return (-1) ** (p + q + r - 2) * (q * r + r * p + p * q - p * q * r)


def _rotation_equal(x, y, step: int = 1) -> bool:
    """y is x rotated by a multiple of ``step``."""
    x, y = tuple(x), tuple(y)
    return len(x) == len(y) and any(y[i:] + y[:i] == x for i in range(0, len(y), step))


def _sl2(m) -> tuple:
    return (m.a, m.b, m.c, m.d)


# --------------------------------------------------------------------------
# Requests
# --------------------------------------------------------------------------


def _lattice(state, payload):
    which, r, gen = payload
    q = state.quadlattice
    lat = q.t_lattice(P, Q, r) if which == "t" else q.t_tilde_lattice(P, Q, r, generator=gen)
    return {
        "lat": lat,
        "disc": q.discriminant(lat),
        "signature": q.signature(lat),
        "parity": q.parity(lat),
        "snf": q.smith_normal_form(lat),
        "radical": q.radical(lat),
    }


def _check_lattice(payload, out, info):
    which, r, _ = payload
    lat = out["lat"]
    rank = P + Q + r - 2 + (which == "ttilde")
    disc_t = _t_disc(P, Q, r)
    n_plus, n_zero, n_minus = out["signature"]
    errors = []
    if lat.rank != rank:
        errors.append(f"rank {lat.rank} != {rank}")
    if out["disc"] != (disc_t if which == "t" else 0):
        errors.append(f"disc {out['disc']} != closed form")
    if n_plus + n_zero + n_minus != rank:
        errors.append("n+ + n0 + n- != rank")
    if n_zero != len(out["radical"]):
        errors.append("n0 != len(radical)")
    expected_sig = (1, 0, rank - 1) if which == "t" else (1, 1, rank - 2)
    if tuple(out["signature"]) != expected_sig:
        errors.append(f"signature {out['signature']} != {expected_sig}")
    if out["parity"] != "even":
        errors.append("parity is not even")
    product = 1
    for d in out["snf"].divisors:
        if d:
            product *= d
    if product != abs(disc_t):
        errors.append("product of nonzero SNF divisors != |disc T|")
    if not out["snf"].verify(lat):
        errors.append("SNF certificate does not re-verify")
    gram = lat.gram
    for v in out["radical"]:
        if any(sum(row[j] * v[j] for j in range(rank)) for row in gram):
            errors.append("radical vector is not in the kernel")
            break
    return errors


def _monodromy(state, r):
    mf, s = state.milnorfiber, state.sl2z
    mu = mf.monodromy_action(P, Q, r)
    return {"mu": mu, "char_poly": mf.char_poly(mu),
            "rl_word": s.rl_word(s.monodromy_matrix(P, Q, r))}


def _check_monodromy(r, out, info):
    n = P + Q + r - 1
    cp = out["char_poly"]
    errors = []
    if len(out["mu"]) != n or len(cp) != n + 1:
        errors.append("wrong size")
    elif cp[-1] != 1 or cp[0] not in (1, -1):
        errors.append("char_poly not monic with c0 = +-1")
    elif sum(cp) != 0:
        errors.append("char_poly(1) != 0 although the fiber class is fixed")
    word = out["rl_word"]
    if word.sign != 1 or _trace(_word_matrix(word.exponents)) != _trace(_monodromy_matrix(P, Q, r)):
        errors.append("rl_word trace differs from the monodromy trace")
    return errors


def _cusp(state, entries):
    c = state.cuspdual
    cycle = c.CycleData(tuple(entries))
    dual = c.dual_cycle(cycle)
    return {
        "dual": dual,
        "back": c.dual_cycle(dual),
        "omega": c.cf_value(cycle),
        "alpha": c.alpha_v(cycle),
        "action": c.module_action_matrix(cycle),
    }


def _check_cusp(entries, out, info):
    t = _trace(_cycle_matrix(entries))
    alpha = out["alpha"]
    errors = []
    if alpha.a * alpha.a - alpha.b * alpha.b * alpha.d != alpha.c * alpha.c:
        errors.append("alpha_v does not have norm 1")
    if 2 * alpha.a != t * alpha.c:
        errors.append("trace of alpha_v != trace of the cycle matrix")
    action = out["action"]
    if action.a + action.d != t:
        errors.append("trace of the module action != trace of the cycle matrix")
    if not _rotation_equal(tuple(entries), tuple(out["back"].entries)):
        errors.append("dual_cycle twice is not a rotation of the cycle")
    if not float(out["omega"]) > 1.0:
        errors.append("cf_value is not > 1")
    return errors


def _conjugacy(state, payload):
    s = state.sl2z
    m, n = (s.SL2Matrix(*x) for x in payload)
    return {"cert": s.is_conjugate(m, n), "word_m": s.rl_word(m), "word_n": s.rl_word(n)}


def _check_conjugacy(payload, out, info):
    m, n = payload
    cert = out["cert"]
    if cert is None:
        return ["conjugate pair reported not conjugate"]
    errors = []
    if not cert.verify():
        errors.append("certificate does not re-verify")
    conj = _sl2(cert.conjugator)
    if _sl2(cert.source) != m or _sl2(cert.target) != n or _mul(_mul(conj, m), _inv(conj)) != n:
        errors.append("certificate does not conjugate the pair")
    wm, wn = out["word_m"].exponents, out["word_n"].exponents
    if not _rotation_equal(wm, wn, step=2):
        errors.append("RL words of conjugate matrices differ")
    if _trace(_word_matrix(wm)) != _trace(m):
        errors.append("RL word trace != matrix trace")
    return errors


def _glued(state, index):
    pair = state.table[index]
    return pair, state.k3glue.glued_lattice(pair)


def _check_glued(index, out, info):
    pair, (lat, verdict) = out
    left, right = pair.left, pair.right
    det = -_t_disc(*left) * _t_disc(*right)  # the hyperbolic plane has det -1
    rank = sum(left) + sum(right) - 4 + 2
    errors = []
    if lat.rank != rank:
        errors.append("glued rank")
    if verdict.det != det:
        errors.append(f"glued det {verdict.det} != closed form {det}")
    if tuple(verdict.signature) != (3, 0, rank - 3):
        errors.append(f"glued signature {verdict.signature}")
    if verdict.parity != "even":
        errors.append("glued parity")
    if verdict.unimodular != (abs(det) == 1):
        errors.append("glued unimodular flag")
    if verdict.isomorphic_to_k3 != (True if abs(det) == 1 else None):
        errors.append("glued K3 verdict")
    return errors


KINDS = {
    "lattice": (_lattice, _check_lattice),
    "monodromy": (_monodromy, _check_monodromy),
    "cusp": (_cusp, _check_cusp),
    "conjugacy": (_conjugacy, _check_conjugacy),
    "glued": (_glued, _check_glued),
}


def execute(state, request_id, req, tracer):
    call, check = KINDS[req.kind]
    hits, misses = tr.squarefree_counts()
    done = common.run_in_process(request_id, req, lambda p: call(state, p), check, tracer)
    after = tr.squarefree_counts()
    done.info["squarefree"] = (after[0] - hits, after[1] - misses)
    return done


# --------------------------------------------------------------------------
# Inputs
# --------------------------------------------------------------------------


def _new_cycle(rng, length: int, seen: set) -> tuple[int, ...]:
    """Random cycle whose trace no earlier cycle of this process had."""
    while True:
        entries = tuple(2 if rng.random() < 0.4 else rng.randint(3, 6) for _ in range(length))
        if max(entries) < 3:
            continue
        t = _trace(_cycle_matrix(entries))
        if t not in seen:
            seen.add(t)
            return entries


def _conjugate_pair(rng, lo: int, hi: int):
    """A positive RL word with trace in [lo, hi] and a random conjugate."""
    while True:
        m = (1, 0, 0, 1)
        while _trace(m) < lo:
            m = _mul(_mul(m, (1, rng.randint(1, 4), 0, 1)), (1, 0, rng.randint(1, 4), 1))
        if _trace(m) <= hi:
            break
    conj = (1, 0, 0, 1)
    for _ in range(4):
        k = rng.choice((-3, -2, -1, 1, 2, 3))
        conj = _mul(conj, (1, k, 0, 1) if rng.random() < 0.5 else (1, 0, k, 1))
    return m, _mul(_mul(conj, m), _inv(conj))


def make_round(state, seed: int, index: int) -> list[Request]:
    """One climb of every ladder; requests of one rung in random order."""
    rng = common.rng_for(seed, "exact-ladder", index)
    rungs = []
    for level, rank in enumerate(LATTICE_RANKS):
        for which in ("t", "ttilde"):
            payload = (which, rank - 5, rng.choice(("S", "S'")))
            rungs.append((level, Request("lattice", f"rank-{rank}", payload)))
    for level, n in enumerate(MONODROMY_NS):
        rungs.append((level, Request("monodromy", f"n-{n}", n - 6)))
    for level, length in enumerate(CYCLE_LENGTHS):
        for _ in range(CYCLES_PER_LENGTH):
            cycle = _new_cycle(rng, length, state.seen_traces)
            rungs.append((level, Request("cusp", f"len-{length}", cycle)))
    for level, (bucket, (lo, hi)) in enumerate(TRACE_BINS.items()):
        for _ in range(PAIRS_PER_BIN):
            rungs.append((level, Request("conjugacy", bucket, _conjugate_pair(rng, lo, hi))))
    for i in range(len(state.table)):
        rungs.append((0, Request("glued", "pairs", i)))
    rng.shuffle(rungs)
    rungs.sort(key=lambda item: item[0])
    return [req for _, req in rungs]


# --------------------------------------------------------------------------
# Per-layer metrics
# --------------------------------------------------------------------------


def layer_metrics(rounds, tracer) -> dict:
    calls = common.call_stats(rounds, tracer)
    out = {}

    def ms(name, bucket=None, own=False):
        return common.median(c[1 if own else 0] for c in calls.get((name, bucket), ())) * 1e3

    for rank in LATTICE_RANKS:
        for fn in ("discriminant", "signature", "smith_normal_form", "radical"):
            out[f"quadlattice.{fn}_ms.rank-{rank}"] = ms(f"quadlattice.{fn}", f"rank-{rank}")
    for n in MONODROMY_NS:
        out[f"milnorfiber.char_poly_ms.n-{n}"] = ms("milnorfiber.char_poly", f"n-{n}")
    out["milnorfiber.monodromy_action_ms"] = ms("milnorfiber.monodromy_action")
    for length in CYCLE_LENGTHS:
        for fn in ("alpha_v", "cf_value", "module_action_matrix", "dual_cycle"):
            out[f"cuspdual.{fn}_ms.len-{length}"] = ms(f"cuspdual.{fn}", f"len-{length}")
    out["cuspdual.squarefree_hits"] = common.per_round(rounds, lambda d: d.info["squarefree"][0])
    out["cuspdual.squarefree_misses"] = common.per_round(rounds, lambda d: d.info["squarefree"][1])
    out["k3glue.glued_lattice_ms"] = ms("k3glue.glued_lattice", own=True)
    for bucket in TRACE_BINS:
        out[f"sl2z.is_conjugate_ms.{bucket}"] = ms("sl2z.is_conjugate", bucket)
        out[f"sl2z.rl_word_ms.{bucket}"] = ms("sl2z.rl_word", bucket)
    return out
