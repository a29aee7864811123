"""The verification engine: evaluates the structural conditions, axioms and
derived lemmas against a theory on a bounded probe set, and classifies it.

Every check item quantifies over probe objects of size up to the configured
bound.  Homsets are enumerated completely when possible; homsets whose size
passes the cap are skipped and recorded (once per check), a scan over
several homsets whose product passes the cap is skipped with a note, and
non-enumerable homsets are sampled with a per-check deterministic seed.
Each sampled homset is drawn once per check, on the check's first visit,
and every later visit gets the same events, so a check sees one homset
however many scans reach it, and a check run alone draws what it draws in
a full classification.  A verdict is "holds-exhaustive" only when no
sampling was involved (the skipped list is part of the report),
"holds-sampled(n)" when it rests on n sampled instances, "fails" with a
replayable witness on the first counterexample in enumeration order, and
"inconclusive" when the theory lacks the structure the check needs, or
("vacuous") when the check met no instance at all.

A check is a plain function over its :class:`_Run`.  It ends at its first
counterexample: ``_Run.fail`` records the witness and raises ``_Failed``,
``_Run.check_eq`` calls it on a mismatch, and :func:`run_check` alone
catches it, so no check returns early by hand.  A check ticks one instance
per tuple of its quantifiers, however many equations it compares on the
tuple; ``check_eq`` compares and does not tick.

For tolerance-based theories a failed comparison is retried at ten times the
tolerance and only counts as a counterexample if it still fails; uses of
the relaxed comparison are recorded on the check.
"""

from __future__ import annotations

import copy
import math
import random
from dataclasses import dataclass
from itertools import product

from . import ops
from .constructions import direct_sum_verify
from .errors import (
    BoundExceeded,
    Incompatible,
    NoComplement,
    NonUniqueComplement,
    NotAPartialTest,
    NotAvailable,
    NotEnumerable,
    NotMonoidal,
)

DEFAULT_CAP = 20000
DEFAULT_SAMPLES = 100


@dataclass(frozen=True)
class ProbeConfig:
    """Bounds and seeds governing one verification run.

    Identical config and seed give an identical report body.
    """

    bound: int = 2
    cap: int = DEFAULT_CAP
    grid: int | None = None
    samples: int = DEFAULT_SAMPLES
    seed: int = 0

    def __post_init__(self):
        if self.bound < 0 or self.cap <= 0 or self.samples <= 0:
            raise ValueError("probe bounds must be positive")

    def to_json(self):
        return {"bound": self.bound, "cap": self.cap, "grid": self.grid,
                "samples": self.samples, "seed": self.seed}


class Witness:
    """A replayable counterexample: named parts, the violated equation, and
    the two evaluated sides.  ``replay()`` re-evaluates the violation."""

    def __init__(self, equation, parts, lhs, rhs, replay=None):
        self.equation = equation
        self.parts = dict(parts)
        self.lhs = lhs
        self.rhs = rhs
        self._replay = replay

    def replay(self):
        """True when the recorded violation still occurs."""
        if self._replay is None:
            return True
        return bool(self._replay())

    def to_json(self):
        return {"equation": self.equation, "parts": self.parts,
                "lhs": self.lhs, "rhs": self.rhs}

    def __repr__(self):
        return f"Witness({self.equation}: {self.lhs} != {self.rhs})"


class CheckResult:
    def __init__(self, check_id, paper_ref, status, *, samples=0, witness=None,
                 reason=None, skipped=(), instances=0, notes=()):
        self.id = check_id
        self.paper_ref = paper_ref
        self.status = status
        self.samples = samples
        self.witness = witness
        self.reason = reason
        self.skipped = list(skipped)
        self.instances = instances
        self.notes = list(notes)

    @property
    def verdict(self):
        if self.status == "holds-exhaustive":
            return "holds-exhaustive"
        if self.status == "holds-sampled":
            return f"holds-sampled({self.samples})"
        if self.status == "fails":
            return "fails"
        return f"inconclusive({self.reason})"

    @property
    def ok(self):
        return self.status in ("holds-exhaustive", "holds-sampled")

    def to_json(self):
        out = {"id": self.id, "paper_ref": self.paper_ref,
               "verdict": self.verdict, "instances": self.instances}
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        if self.skipped:
            out["skipped"] = self.skipped
        if self.notes:
            out["notes"] = self.notes
        return out


class CheckReport:
    def __init__(self, theory_name, config, results, flags):
        self.theory_name = theory_name
        self.config = config
        self.results = results
        self.flags = flags

    def result(self, check_id):
        for r in self.results:
            if r.id == check_id:
                return r
        raise KeyError(check_id)

    def to_json(self):
        return {"format": "opcheck/1", "theory": self.theory_name,
                "config": self.config.to_json(),
                "checks": [r.to_json() for r in self.results],
                "flags": self.flags}

    def render_text(self, color=False):
        def paint(text, code):
            return f"\x1b[{code}m{text}\x1b[0m" if color else text
        lines = [f"theory: {self.theory_name}",
                 f"config: {self.config.to_json()}", ""]
        for r in self.results:
            mark = paint("ok", "32") if r.ok else (
                paint("FAIL", "31") if r.status == "fails" else paint("??", "33"))
            lines.append(f"  [{mark}] {r.id}: {r.verdict}")
            if r.witness is not None:
                lines.append(f"        {r.witness.equation}")
                lines.append(f"        lhs={r.witness.lhs} rhs={r.witness.rhs}")
                for k, v in r.witness.parts.items():
                    lines.append(f"        {k} = {v}")
            if r.skipped:
                lines.append(f"        skipped {len(r.skipped)} homset(s) over the cap")
        lines.append("")
        lines.append("flags:")
        for k in sorted(self.flags):
            lines.append(f"  {k}: {self.flags[k]}")
        return "\n".join(lines)

    @property
    def any_failures(self):
        return any(r.status == "fails" for r in self.results)


# ---------------------------------------------------------------------------
# Per-check execution context

def _relaxed_equal(theory, f, g):
    """Equality with a ten-times-tolerance retry for numeric theories.

    Returns (equal, relaxed) where relaxed says the retry decided it.
    """
    if theory.equal(f, g):
        return True, False
    if theory.tol is None:
        return False, False
    relaxed = theory.equal(f, g, tol=theory.tol * 10)
    return relaxed, relaxed


class _Failed(Exception):
    """Raised by :meth:`_Run.fail` to end a check at its first
    counterexample; :func:`run_check` catches it."""


class _Run:
    def __init__(self, theory, cfg, check_id):
        self.theory = theory
        self.cfg = cfg
        self.id = check_id
        self.rng = random.Random(f"{cfg.seed}:{check_id}")
        self.sampled = False
        self.instances = 0
        self.skipped = []
        self.witness = None
        self.reason = None
        self.notes = set()
        # the sampled homsets drawn so far, by (a, b); None when skipped
        self.drawn = {}

    # -- quantification helpers -------------------------------------------
    def probes(self):
        return self.theory.probe_objects(self.cfg.bound)

    def skip(self, a, b, why):
        entry = {"dom": self.theory.object_str(a),
                 "cod": self.theory.object_str(b), "reason": why}
        if entry not in self.skipped:
            self.skipped.append(entry)

    def _enumerate(self, a, b):
        """The complete homset, or None when it is over the cap (skipped).

        Raises NotEnumerable when the theory cannot enumerate it."""
        try:
            return self.theory.enumerate_hom(a, b, self.cfg.cap)
        except BoundExceeded as exc:
            self.skip(a, b, str(exc))
            return None

    def homs(self, a, b):
        """Probe homset: a complete enumeration, a sample, or None (skipped).

        A homset that cannot be enumerated is sampled on the first visit
        and kept in ``drawn``, so every later visit returns the same list
        (or None again) and draws nothing.  Enumerated homsets are kept by
        the theory itself."""
        if (a, b) in self.drawn:
            return self.drawn[a, b]
        th = self.theory
        try:
            return self._enumerate(a, b)
        except NotEnumerable:
            pass
        try:
            out = [th.sample_hom(a, b, self.rng) for _ in range(self.cfg.samples)]
        except NotEnumerable:
            self.skip(a, b, "neither enumerable nor samplable")
            out = None
        else:
            self.sampled = True
        self.drawn[a, b] = out
        return out

    def totals(self, a, b):
        hs = self.homs(a, b)
        if hs is None:
            return None
        return [f for f in hs if ops.is_total(f)]

    def totals_into_lift(self, a, b):
        """Total morphisms from ``a`` into ``b + I``, or None (skipped).

        When ``hom(a, b + I)`` cannot be enumerated they are the total
        extensions of the events of :meth:`homs` ``(a, b)`` (every such
        total arises this way), so they come from the check's one draw of
        that homset, and a homset that cannot be sampled either is skipped
        as :meth:`homs` skips it."""
        th = self.theory
        try:
            hs = self._enumerate(a, th.coproduct((b, th.unit())))
        except NotEnumerable:
            pass
        else:
            return None if hs is None else [f for f in hs if ops.is_total(f)]
        hs = self.homs(a, b)
        if hs is None:
            return None
        out = []
        for f in hs:
            try:
                out.append(ops.total_extension(f))
            except (NoComplement, NotAPartialTest, NonUniqueComplement):
                continue
        return out

    def key(self, f):
        """A hashable key of ``f``: exact for an exact theory, else rounded
        so that events equal within the tolerance share it, barring values
        that round apart."""
        return (f.dom, f.cod, self.theory.rounded_key(f))

    def squares(self, objs=None):
        """Every ordered pair of probe objects, or of ``objs``."""
        objs = self.probes() if objs is None else objs
        return product(objs, objs)

    def homsets(self, pairs, fetch=None):
        """``(a, b, hs)`` for each pair whose homset ``fetch(a, b)``
        (:meth:`homs` by default) was not skipped.  A homset is fetched
        only when the loop reaches its pair."""
        fetch = fetch or self.homs
        for a, b in pairs:
            hs = fetch(a, b)
            if hs is not None:
                yield a, b, hs

    def pick(self, pool):
        """One seeded draw from ``pool``."""
        return pool[self.rng.randrange(len(pool))]

    def pair_scan(self, fs, gs, *views):
        """``(f, g, pairs)`` for each capped pair of ``fs`` and ``gs``, in
        :func:`_capped_product` order, where ``pairs`` says whether ``f``
        and ``g`` pair.  Given ``views``, it yields one such boolean per
        view instead: whether ``view(f)`` and ``view(g)`` pair, a view of
        None standing for the events themselves.

        An uncapped scan reads one :meth:`Theory.pairing_table` per view.
        A capped scan asks for a one-by-one table per drawn pair, when the
        loop reaches it, so its draws interleave with the loop body's."""
        if not (fs and gs):
            return
        views = views or (None,)

        def tables(fs, gs):
            table = self.theory.pairing_table
            return [table(fs if v is None else [v(f) for f in fs],
                          gs if v is None else [v(g) for g in gs])
                    for v in views]

        if len(fs) * len(gs) <= self.cfg.cap:
            for f, *rows in zip(fs, *tables(fs, gs)):
                for g, *pairs in zip(gs, *rows):
                    yield f, g, *pairs
            return
        for f, g in _capped_product(self, fs, gs):
            yield f, g, *(pairs for [[pairs]] in tables([f], [g]))

    def pairing_pairs(self, hs):
        """The capped pairs ``(f, g)`` of ``hs`` that satisfy the premise
        "f and g pair"."""
        return ((f, g) for f, g, pairs in self.pair_scan(hs, hs) if pairs)

    # -- assertions --------------------------------------------------------
    def check_eq(self, f, g, equation, parts):
        """End the check unless ``f`` equals ``g``."""
        th = self.theory
        equal, relaxed = _relaxed_equal(th, f, g)
        if relaxed:
            self.notes.add("relaxed-tolerance-used")
        if not equal:
            self.fail(equation, parts, repr(f), repr(g),
                      replay=lambda: not _relaxed_equal(th, f, g)[0])

    def fail(self, equation, parts, lhs, rhs, replay=None):
        """Record the counterexample and end the check."""
        parts = {k: repr(v) for k, v in parts.items()}
        self.witness = Witness(equation, parts, lhs, rhs, replay=replay)
        raise _Failed

    def tick(self, n=1):
        self.instances += n

    def result(self, paper_ref):
        if self.witness is None and self.reason is None and not self.instances:
            self.reason = "vacuous"
        if self.witness is not None:
            status = "fails"
        elif self.reason is not None:
            status = "inconclusive"
        elif self.sampled:
            status = "holds-sampled"
        else:
            status = "holds-exhaustive"
        return CheckResult(self.id, paper_ref, status,
                           samples=self.instances if self.sampled else 0,
                           witness=self.witness, reason=self.reason,
                           skipped=self.skipped, instances=self.instances,
                           notes=sorted(self.notes))


# ---------------------------------------------------------------------------
# Individual checks.  Each mutates its run; the registry at the bottom maps
# stable ids to (paper_ref, function, needs_monoidal).

def _capped_product(run, *pools):
    """Every tuple with one item from each pool, or, when there are more
    than the cap, a seeded draw of ``samples`` tuples with a recorded note.

    Capping an enumerable scan does not demote the verdict to sampled; the
    note marks the reduced coverage.  The draws are made lazily, so they
    interleave with any draws the caller's loop body makes.
    """
    if math.prod(len(p) for p in pools) > run.cfg.cap:
        run.notes.add("pair-scan-capped")
        for _ in range(run.cfg.samples):
            yield tuple(run.pick(p) for p in pools)
        return
    yield from product(*pools)


def _unless_skipped(*hss):
    """The homsets, or None when any was skipped.  The caller fetches them
    all first, so every skip is recorded."""
    return None if any(hs is None for hs in hss) else hss


def _first_clash(run, items, key, seen=None):
    """Tick each item and file it under ``key(item)`` in ``seen``.

    Returns ``(earlier, later)`` for the first two items that share a key
    but are not equal, or None when items that share a key are all equal.
    """
    seen = {} if seen is None else seen
    for item in items:
        run.tick()
        k = key(item)
        if k in seen and not run.theory.equal(seen[k], item):
            return seen[k], item
        seen[k] = item
    return None


def check_cat_identity(run):
    th = run.theory
    for a, b, hs in run.homsets(run.squares()):
        ida, idb = th.identity(a), th.identity(b)
        for f in hs:
            run.tick()
            run.check_eq(th.compose(idb, f), f, "id . f = f", {"f": f})
            run.check_eq(th.compose(f, ida), f, "f . id = f", {"f": f})


def check_cat_assoc(run):
    th = run.theory
    objs = [o for o in run.probes() if th.object_size(o) >= 1]
    if not objs:
        run.reason = "no nonempty probe objects"
        return
    run.sampled = True
    for _ in range(run.cfg.samples):
        a, b, c, d = (run.pick(objs) for _ in range(4))
        try:
            f = th.sample_hom(a, b, run.rng)
            g = th.sample_hom(b, c, run.rng)
            h = th.sample_hom(c, d, run.rng)
        except NotEnumerable:
            hs1, hs2, hs3 = run.homs(a, b), run.homs(b, c), run.homs(c, d)
            if not hs1 or not hs2 or not hs3:
                continue
            f, g, h = run.pick(hs1), run.pick(hs2), run.pick(hs3)
        run.tick()
        run.check_eq(th.compose(h, th.compose(g, f)),
                     th.compose(th.compose(h, g), f),
                     "h . (g . f) = (h . g) . f", {"f": f, "g": g, "h": h})


def check_coarse_graining(run):
    """Commutativity, associativity and composition distributivity of merging."""
    th = run.theory
    for a, b, hs in run.homsets(run.squares()):
        # hom(b, a) is fetched once, at the first pair that pairs
        fetched = False
        for f, g in run.pairing_pairs(hs):
            run.tick()
            fg = ops.coarse_grain(f, g)
            gf = ops.coarse_grain(g, f)
            run.check_eq(fg, gf, "f v g = g v f", {"f": f, "g": g})
            if not fetched:
                post = run.homs(b, a)
                fetched = True
            if post:
                k = run.pick(post)
                lhs = th.compose(k, fg)
                kf, kg = th.compose(k, f), th.compose(k, g)
                h = th.try_pairing([kf, kg])
                if h is None:
                    run.fail("k.(f v g) defined but k.f, k.g do not merge",
                             {"f": f, "g": g, "k": k}, repr(lhs), "undefined",
                             replay=lambda: th.try_pairing(
                                 [th.compose(k, f), th.compose(k, g)]) is None)
                rhs = ops.merge_pairing(h, a)
                run.check_eq(lhs, rhs, "k.(f v g) = k.f v k.g",
                             {"f": f, "g": g, "k": k})


def check_zero_laws(run):
    th = run.theory
    for a, b, hs in run.homsets(run.squares()):
        z = th.zero_morphism(a, b)
        for f in hs:
            run.tick()
            h = th.try_pairing([f, z])
            if h is None:
                run.fail("f and 0 always merge", {"f": f}, repr(f), "no pairing",
                         replay=lambda: th.try_pairing([f, z]) is None)
            run.check_eq(ops.merge_pairing(h, b), f, "f v 0 = f", {"f": f})
        for c, _, pre in run.homsets((c, a) for c in run.probes()):
            if not pre:
                continue
            g = run.pick(pre)
            run.tick()
            run.check_eq(th.compose(z, g), th.zero_morphism(c, b),
                         "0 . g = 0", {"g": g})


def check_trivial_tests(run):
    th = run.theory
    for a in run.probes():
        run.tick()
        if not ops.is_total(th.identity(a)):
            run.fail("identity is deterministic", {"object": th.object_str(a)},
                     repr(th.compose(th.discard(a), th.identity(a))),
                     repr(th.discard(a)))
    if th.monoidal:
        unit = th.unit()
        lam = th.unitor_left(unit)
        run.tick()
        if not ops.is_total(lam):
            run.fail("unit coherence is deterministic", {}, repr(lam), "total")


def check_complements(run):
    th = run.theory
    unit = th.unit()
    for _, _, effects in run.homsets((a, unit) for a in run.probes()):
        for e in effects:
            run.tick()
            try:
                ops.complement_effect(e)
            except NoComplement:
                run.fail("every effect has a complement",
                         {"e": e}, repr(e), "no complement",
                         replay=lambda e=e: not th.effect_complements(e))
            except NonUniqueComplement as exc:
                ws = ", ".join(repr(w) for w in exc.witnesses)
                run.fail("the complement of an effect is unique",
                         {"e": e, "complements": ws},
                         f"{len(exc.witnesses)} complements", "1",
                         replay=lambda e=e: len(th.effect_complements(e)) > 1)


def _total_effects_discard(run, equation):
    """``equation`` says that every total effect is discarding."""
    th = run.theory
    unit = th.unit()
    for a, _, effects in run.homsets(((a, unit) for a in run.probes()),
                                     run.totals):
        top = th.discard(a)
        for e in effects:
            run.tick()
            run.check_eq(e, top, equation, {"object": th.object_str(a)})


def check_causality(run):
    _total_effects_discard(run, "the only total effect is discarding")


def check_cancellativity(run):
    th = run.theory
    unit = th.unit()
    for _, _, effects in run.homsets((a, unit) for a in run.probes()):
        pool = effects
        if len(effects) ** 2 > run.cfg.cap:
            run.notes.add("pair-scan-capped")
            pool = [run.pick(effects)
                    for _ in range(max(2, int(run.cfg.samples ** 0.5)))]
        for e3 in pool:
            # the merge with e3 of each e that pairs with it, by identity
            merges = {id(e): ops.merge_pairing(h, unit) for e in pool
                      if (h := th.try_pairing([e, e3])) is not None}
            clash = _first_clash(run, (e for e in pool if id(e) in merges),
                                 lambda e: run.key(merges[id(e)]))
            if clash:
                e1, e2 = clash
                run.fail("e1 v e3 = e2 v e3 implies e1 = e2",
                         {"e1": e1, "e2": e2, "e3": e3},
                         repr(merges[id(e1)]), repr(merges[id(e2)]),
                         replay=lambda: _merges_agree(run, e1, e2, e3))


def _merges_agree(run, e1, e2, e3):
    """Whether ``e1 != e2`` both pair with ``e3`` into equal merges."""
    th = run.theory
    hs = [th.try_pairing([e, e3]) for e in (e1, e2)]
    return not th.equal(e1, e2) and None not in hs and len(
        {run.key(ops.merge_pairing(h, th.unit())) for h in hs}) == 1


def check_discard_tensor(run):
    th = run.theory
    unit = th.unit()
    lam = th.unitor_left(unit)
    for a, b in run.squares():
        run.tick()
        lhs = th.discard(th.tensor_obj(a, b))
        rhs = th.compose(lam, th.tensor(th.discard(a), th.discard(b)))
        run.check_eq(lhs, rhs,
                     "discard(A x B) = coherence . (discard A x discard B)",
                     {"A": th.object_str(a), "B": th.object_str(b)})


def check_c1_structure(run):
    th = run.theory
    unit = th.unit()
    run.tick()
    run.check_eq(th.discard(unit), th.identity(unit),
                 "discard on the trivial object is the identity", {})
    for a, b in run.squares():
        run.tick()
        ab = th.coproduct((a, b))
        lhs = th.discard(ab)
        rhs = th.cotuple((a, b), [th.discard(a), th.discard(b)])
        run.check_eq(lhs, rhs, "discard(A + B) = [discard A, discard B]",
                     {"A": th.object_str(a), "B": th.object_str(b)})
    zero = th.zero()
    for a in run.probes():
        for end, pair in (("initial", (zero, a)), ("terminal", (a, zero))):
            for _, _, hs in run.homsets([pair]):
                run.tick()
                if len({run.key(f) for f in hs}) > 1:
                    run.fail(f"the zero object is {end}",
                             {"object": th.object_str(a)},
                             f"{len(hs)} morphisms", "1")


def check_c2_joint_monic(run):
    th = run.theory
    for a in run.probes():
        if th.object_size(a) < 1:
            continue
        aa = th.coproduct((a, a))
        projs = [ops.projection(th, (a, a), i) for i in range(2)]
        for _, _, hs in run.homsets((x, aa) for x in run.probes()):
            clash = _first_clash(run, hs, lambda f: tuple(
                run.key(th.compose(p, f)) for p in projs))
            if clash:
                g, f = clash
                run.fail("projections out of A + A are jointly monic",
                         {"f": f, "g": g},
                         repr(th.compose(projs[0], f)),
                         repr(th.compose(projs[0], g)))


def _extension_not_canonical(f):
    """Whether ``f``'s observation has several complements, or one that does
    not pair with ``f``."""
    th = f.theory
    cs = th.effect_complements(ops.observation(f))
    return len(cs) > 1 or (len(cs) == 1 and th.try_pairing([f, cs[0]]) is None)


def check_c3_total_extension(run):
    th = run.theory
    unit = th.unit()
    for a, b, hs in run.homsets(run.squares()):
        proj = ops.projection(th, (b, unit), 0)
        for f in hs:
            run.tick()
            try:
                ext = ops.total_extension(f)
            except NoComplement:
                run.fail("every event has a total extension", {"f": f},
                         repr(f), "no extension", replay=lambda:
                         not th.effect_complements(ops.observation(f)))
            except (NonUniqueComplement, NotAPartialTest) as exc:
                run.fail("the total extension is canonical", {"f": f},
                         repr(f), str(exc),
                         replay=lambda: _extension_not_canonical(f))
            if not ops.is_total(ext):
                run.fail("the extension is total", {"f": f}, repr(ext), "total")
            run.check_eq(th.compose(proj, ext), f,
                         "the extension restricts to the event", {"f": f})
        totals = run.totals_into_lift(a, b)
        clash = totals is not None and _first_clash(
            run, totals, lambda t: run.key(th.compose(proj, t)))
        if clash:
            g1, g2 = clash
            run.fail("the total extension is unique",
                     {"event": th.compose(proj, g2), "g1": g1, "g2": g2},
                     repr(g1), repr(g2), replay=lambda: not th.equal(g1, g2)
                     and th.equal(th.compose(proj, g1), th.compose(proj, g2)))


def check_c4_distributivity(run):
    """Tensor distributes over merging and annihilates with zero."""
    th = run.theory
    objs = [o for o in run.probes() if th.object_size(o) >= 1]
    for a, b, hs in run.homsets(run.squares(objs)):
        for f, g in run.pairing_pairs(hs):
            h = run.pick(hs)
            run.tick()
            lhs = th.tensor(h, ops.coarse_grain(f, g))
            hf, hg = th.tensor(h, f), th.tensor(h, g)
            paired = th.try_pairing([hf, hg])
            if paired is None:
                run.fail("h x (f v g) defined but h x f, h x g do not merge",
                         {"f": f, "g": g, "h": h}, repr(lhs), "undefined",
                         replay=lambda: th.try_pairing(
                             [th.tensor(h, f), th.tensor(h, g)]) is None)
            rhs = ops.merge_pairing(paired, hf.cod)
            run.check_eq(lhs, rhs, "h x (f v g) = (h x f) v (h x g)",
                         {"f": f, "g": g, "h": h})
        z = th.zero_morphism(a, b)
        if hs:
            h = run.pick(hs)
            run.tick()
            run.check_eq(
                th.tensor(h, z),
                th.zero_morphism(th.tensor_obj(a, a), th.tensor_obj(b, b)),
                "h x 0 = 0", {"h": h})


def check_lemma34_joint_monic(run):
    """Joint monicity of the projections out of a ternary coproduct."""
    th = run.theory
    objs = [o for o in run.probes() if 1 <= th.object_size(o)]
    triples = [(a, b, c) for a in objs for b in objs for c in objs
               if th.object_size(a) + th.object_size(b) + th.object_size(c)
               <= max(3, run.cfg.bound)]
    for summands in triples:
        cop = th.coproduct(summands)
        projs = [ops.projection(th, summands, i) for i in range(3)]
        for _, _, hs in run.homsets((x, cop) for x in run.probes()):
            clash = _first_clash(run, hs, lambda f: tuple(
                run.key(th.compose(p, f)) for p in projs))
            if clash:
                g, f = clash
                run.fail("ternary projections are jointly monic",
                         {"f": f, "g": g}, repr(f), repr(g))


def check_coproduct_universal(run):
    th = run.theory
    objs = [o for o in run.probes() if th.object_size(o) >= 1]
    for a, b in run.squares(objs):
        ab = th.coproduct((a, b))
        k1 = th.coprojection((a, b), 0)
        k2 = th.coprojection((a, b), 1)
        legs = lambda a, c: _unless_skipped(run.homs(a, c), run.homs(b, c))
        composed = lambda h: (run.key(th.compose(h, k1)),
                              run.key(th.compose(h, k2)))
        for _, c, (fs, gs) in run.homsets(((a, c) for c in run.probes()), legs):
            # the keys of the legs of each cotuple checked, by its key, for
            # the uniqueness scan to read; only where keys are exact, as a
            # member with a cotuple's rounded key may have other legs
            checked = {}
            for f, g in _capped_product(run, fs, gs):
                run.tick()
                h = th.cotuple((a, b), [f, g])
                run.check_eq(th.compose(h, k1), f,
                             "[f, g] . k1 = f", {"f": f, "g": g})
                run.check_eq(th.compose(h, k2), g,
                             "[f, g] . k2 = g", {"f": f, "g": g})
                if th.tol is None:
                    checked[run.key(h)] = run.key(f), run.key(g)
            hs = run.homs(ab, c)
            clash = hs is not None and _first_clash(run, hs, lambda h: (
                checked and checked.get(run.key(h))) or composed(h))
            if clash:
                h1, h2 = clash
                run.fail("the cotupling is unique", {"h1": h1, "h2": h2},
                         repr(h1), repr(h2),
                         replay=lambda: (not th.equal(h1, h2)
                                         and composed(h1) == composed(h2)))


def check_eq2_projections(run):
    th = run.theory
    objs = [o for o in run.probes() if th.object_size(o) >= 1]
    for a, b in run.squares(objs):
        summands = (a, b)
        for y in range(2):
            p = ops.projection(th, summands, y)
            for x in range(2):
                run.tick()
                got = th.compose(p, th.coprojection(summands, x))
                want = (th.identity(summands[x]) if x == y
                        else th.zero_morphism(summands[x], summands[y]))
                run.check_eq(got, want, "projection . injection = delta",
                             {"x": x, "y": y, "A": th.object_str(a),
                              "B": th.object_str(b)})


def _tilde_projection(th, a, i):
    """The total-form projection (A + A) -> A + 1 sending the other summand
    to the second coprojection via discarding."""
    unit = th.unit()
    k1 = th.coprojection((a, unit), 0)
    k2fill = th.compose(th.coprojection((a, unit), 1), th.discard(a))
    legs = [k1, k2fill] if i == 0 else [k2fill, k1]
    return th.cotuple((a, a), legs)


def check_def31_c1(run):
    """Total form: terminal trivial object and joint monicity of the lifted
    projection pair out of (A + A) + 1."""
    _total_effects_discard(
        run, "the trivial object is terminal for total morphisms")
    th = run.theory
    unit = th.unit()
    for a in run.probes():
        if th.object_size(a) < 1:
            continue
        aa = th.coproduct((a, a))
        k2 = th.compose(th.coprojection((a, unit), 1), th.identity(unit))
        maps = [th.cotuple((aa, unit), [_tilde_projection(th, a, i), k2])
                for i in range(2)]
        for _, _, totals in run.homsets(((x, aa) for x in run.probes()),
                                        run.totals_into_lift):
            lifted = lambda f: tuple(run.key(th.compose(m, f)) for m in maps)
            clash = _first_clash(run, totals, lifted)
            if clash:
                g, f = clash
                run.fail("the lifted projections are jointly monic",
                         {"f": f, "g": g}, repr(f), repr(g), replay=lambda:
                         not th.equal(f, g) and lifted(f) == lifted(g))


def check_def31_c2(run):
    """Total form: the naming square of each object is a pullback."""
    th = run.theory
    unit = th.unit()
    for a in run.probes():
        bottom = th.cotuple((a, unit), [
            th.compose(th.coprojection((unit, unit), 0), th.discard(a)),
            th.coprojection((unit, unit), 1)])
        k1a = th.coprojection((a, unit), 0)
        k1u = th.coprojection((unit, unit), 0)
        for x, _, vs in run.homsets(((x, a) for x in run.probes()), run.totals):
            mediated = {}
            clash = _first_clash(run, vs, lambda v: run.key(th.compose(k1a, v)),
                                 mediated)
            if clash:
                v1, v2 = clash
                run.fail("the mediating arrow is unique", {"v1": v1, "v2": v2},
                         repr(v1), repr(v2))
            cones = run.totals_into_lift(x, a)
            if cones is None:
                continue
            top = th.compose(k1u, th.discard(x))
            for u in cones:
                if not th.equal(th.compose(bottom, u), top):
                    continue
                run.tick()
                if run.key(u) not in mediated:
                    run.fail("every cone factors through the square",
                             {"u": u}, repr(u), "no mediating arrow")


def check_lemma32(run):
    """Coprojections are monic and meet only at the zero object."""
    th = run.theory
    objs = [o for o in run.probes() if th.object_size(o) >= 1]
    for a, b in run.squares(objs):
        k1 = th.coprojection((a, b), 0)
        k2 = th.coprojection((a, b), 1)
        legs = lambda x, a: _unless_skipped(run.totals(x, a), run.totals(x, b))
        for x, _, (fs, gs) in run.homsets(((x, a) for x in run.probes()), legs):
            images = {}
            clash = _first_clash(run, fs, lambda f: run.key(th.compose(k1, f)),
                                 images)
            if clash:
                g, f = clash
                run.fail("the first coprojection is monic",
                         {"f": f, "g": g}, repr(f), repr(g))
            if th.object_size(x) >= 1:
                for g in gs:
                    run.tick()
                    if run.key(th.compose(k2, g)) in images:
                        run.fail("the coprojection images only meet over zero",
                                 {"g": g}, repr(th.compose(k2, g)), "disjoint")


def check_positivity(run):
    th = run.theory
    unit = th.unit()
    for a, b, hs in run.homsets(run.squares()):
        z = th.zero_morphism(a, b)
        zero_eff = th.zero_morphism(a, unit)
        for f in hs:
            run.tick()
            if th.equal(ops.observation(f), zero_eff) and not th.equal(f, z):
                run.fail("discard . f = 0 implies f = 0", {"f": f},
                         repr(ops.observation(f)), repr(f))
        for f, g in run.pairing_pairs(hs):
            run.tick()
            if th.equal(ops.coarse_grain(f, g), z):
                if not (th.equal(f, z) and th.equal(g, z)):
                    run.fail("f v g = 0 implies f = g = 0",
                             {"f": f, "g": g},
                             repr(ops.coarse_grain(f, g)), "0 with f, g != 0",
                             replay=lambda f=f, g=g, z=z:
                             th.equal(ops.coarse_grain(f, g), z)
                             and not th.equal(f, z))


def check_combining(run):
    th = run.theory
    for a in run.probes():
        top = th.discard(a)
        legs = lambda b, c: _unless_skipped(run.homs(a, b), run.homs(a, c))
        for _, _, (fs, gs) in run.homsets(run.squares(), legs):
            for f, g, observable in run.pair_scan(fs, gs, ops.observation):
                if not observable:
                    continue
                ef, eg = ops.observation(f), ops.observation(g)
                if not th.equal(ops.coarse_grain(ef, eg), top):
                    continue
                run.tick()
                if th.try_pairing([f, g]) is None:
                    run.fail("complementary normalizations admit a joint test",
                             {"f": f, "g": g}, "discard", "no pairing",
                             replay=lambda f=f, g=g: th.try_pairing([f, g]) is None)


def check_observations(run):
    """A family is a partial test exactly when its discard composites merge."""
    for a in run.probes():
        legs = lambda b, c: _unless_skipped(run.homs(a, b), run.homs(a, c))
        for _, _, (fs, gs) in run.homsets(run.squares(), legs):
            for f, g, observable, paired in run.pair_scan(
                    fs, gs, ops.observation, None):
                run.tick()
                if observable != paired:
                    run.fail("pairing exists iff the observations merge",
                             {"f": f, "g": g},
                             f"observations merge: {observable}",
                             f"pairing exists: {paired}")


def check_pcm_laws(run):
    th = run.theory
    unit = th.unit()
    scalars = run.homs(unit, unit)
    if scalars is None:
        run.reason = "scalar homset not available"
        return
    zero = th.zero_morphism(unit, unit)
    for s in scalars:
        run.tick()
        h = th.try_pairing([s, zero])
        if h is None:
            run.fail("s and 0 always merge", {"s": s}, repr(s), "no pairing",
                     replay=lambda: th.try_pairing([s, zero]) is None)
        run.check_eq(ops.merge_pairing(h, unit), s, "s v 0 = s", {"s": s})
    for s, t in _capped_product(run, scalars, scalars):
        h = th.try_pairing([s, t])
        if h is None:
            if th.try_pairing([t, s]) is not None:
                run.fail("compatibility is symmetric", {"s": s, "t": t},
                         "undefined", "defined",
                         replay=lambda: th.try_pairing([s, t]) is None
                         and th.try_pairing([t, s]) is not None)
            continue
        run.tick()
        run.check_eq(ops.merge_pairing(h, unit), ops.coarse_grain(t, s),
                     "s v t = t v s", {"s": s, "t": t})
    for s, t, u in _capped_product(run, scalars, scalars, scalars):
        if th.try_pairing([s, t, u]) is None:
            continue
        run.tick()
        lhs = ops.coarse_grain(ops.coarse_grain(s, t), u)
        rhs = ops.coarse_grain(s, ops.coarse_grain(t, u))
        run.check_eq(lhs, rhs, "(s v t) v u = s v (t v u)",
                     {"s": s, "t": t, "u": u})


def check_iso_total(run):
    th = run.theory
    both = lambda a, b: _unless_skipped(run.homs(a, b), run.homs(b, a))
    for a, b, (fs, gs) in run.homsets(run.squares(), both):
        if len(fs) * len(gs) > run.cfg.cap:
            run.notes.add("scan-skipped-over-cap")
            continue
        ida, idb = th.identity(a), th.identity(b)
        for f, g in product(fs, gs):
            if th.equal(th.compose(g, f), ida) and \
                    th.equal(th.compose(f, g), idb):
                run.tick()
                if not ops.is_total(f):
                    run.fail("every isomorphism is total", {"f": f, "g": g},
                             repr(ops.observation(f)),
                             repr(th.discard(a)), replay=lambda:
                             th.equal(th.compose(g, f), ida)
                             and th.equal(th.compose(f, g), idb)
                             and not ops.is_total(f))


def check_zero_strict(run):
    th = run.theory
    zero = th.zero()
    for a, _, hs in run.homsets(((a, zero) for a in run.probes()
                                 if th.object_size(a) != 0), run.totals):
        run.tick()
        if hs:
            run.fail("the zero object is strict", {"object": th.object_str(a)},
                     repr(hs[0]), "no total morphism into 0")


def check_direct_sums(run):
    th = run.theory
    objs = [o for o in run.probes() if th.object_size(o) >= 1]
    for a, b in run.squares(objs):
        run.tick()
        verdict = direct_sum_verify(th, (a, b))
        if not verdict["ok"]:
            run.fail("the canonical coproduct is a direct sum",
                     {"A": th.object_str(a), "B": th.object_str(b)},
                     ", ".join(verdict["failures"]), "all equations hold")


def check_separation(run):
    """Unequal parallel events have different outcomes on some state and
    effect.  Where the theory has a probe basis of both ends, the homset is
    keyed by its outcomes on the basis first; only when that puts two
    unequal events under one key is it scanned over every state and
    effect, which then decides the verdict and the witness."""
    th = run.theory
    unit = th.unit()
    scans = lambda a, b: _unless_skipped(run.homs(a, b), run.homs(unit, a),
                                         run.homs(b, unit))
    for a, b, (hs, states, effects) in run.homsets(run.squares(), scans):
        into, out_of = th.probe_basis(a), th.probe_basis(b)
        if into is not None and out_of is not None and not _first_clash(
                run, hs, lambda f: th.outcome_key(f, into[0], out_of[1])):
            continue
        if len(hs) * len(states) * len(effects) > run.cfg.cap:
            run.notes.add("scan-skipped-over-cap")
            continue
        outcomes = lambda f: th.outcome_key(f, states, effects)
        clash = _first_clash(run, hs, outcomes)
        if clash:
            g, f = clash
            run.fail("probes separate parallel events",
                     {"f": f, "g": g}, repr(f), repr(g), replay=lambda:
                     not th.equal(f, g) and outcomes(f) == outcomes(g))


# ---------------------------------------------------------------------------
# Registry and classification

CHECKS = [
    ("cat-identity", "Def. 2.1 (category laws)", check_cat_identity, False),
    ("cat-assoc", "Def. 2.1 (category laws)", check_cat_assoc, False),
    ("assumption3-coarse-graining", "Assumption 3", check_coarse_graining, False),
    ("assumption4-zero", "Assumption 4", check_zero_laws, False),
    ("assumption5-trivial-tests", "Assumption 5", check_trivial_tests, False),
    ("assumption7-complements", "Assumption 7", check_complements, False),
    ("lemma2.2-causality", "Lemma 2.2", check_causality, False),
    ("lemma2.3-iii", "Lemma 2.3 iii", check_cancellativity, False),
    ("lemma2.3-iv", "Lemma 2.3 iv", check_discard_tensor, True),
    ("coproduct-universal", "Sec. 3.1 (coproducts)", check_coproduct_universal, False),
    ("eq2-projections", "Eq. (2)", check_eq2_projections, False),
    ("def3.3-c1", "Def. 3.3 condition 1", check_c1_structure, False),
    ("def3.3-c2", "Def. 3.3 condition 2", check_c2_joint_monic, False),
    ("def3.3-c3", "Def. 3.3 condition 3", check_c3_total_extension, False),
    ("def3.3-c4", "Def. 3.3 condition 4", check_c4_distributivity, True),
    ("def3.3-c5", "Def. 3.3 condition 5", check_discard_tensor, True),
    ("lemma3.4", "Lemma 3.4", check_lemma34_joint_monic, False),
    ("def3.1-c1", "Def. 3.1 condition 1", check_def31_c1, False),
    ("def3.1-c2", "Def. 3.1 condition 2", check_def31_c2, False),
    ("lemma3.2", "Lemma 3.2", check_lemma32, False),
    ("axiom-positivity", "Axiom 1 / Lemma 5.1 ii", check_positivity, False),
    ("axiom-combining", "Axiom 3 / Lemma 6.3", check_combining, False),
    ("axiom-observations", "Axiom 2 / Lemma 6.3", check_observations, False),
    ("pcm-laws", "Sec. 2.2 (scalars)", check_pcm_laws, False),
    ("lemmaB.3-i", "Lemma B.3 i", check_iso_total, False),
    ("lemmaB.3-ii", "Lemma B.3 ii", check_zero_strict, False),
    ("direct-sums", "Lemma 4.2", check_direct_sums, False),
    ("separation", "Sec. 5 (operational equivalence)", check_separation, False),
]

CHECK_IDS = [c[0] for c in CHECKS]


def run_check(theory, cfg, check_id):
    entry = next((c for c in CHECKS if c[0] == check_id), None)
    if entry is None:
        raise KeyError(f"unknown check id {check_id!r}")
    _, paper_ref, func, needs_monoidal = entry
    run = _Run(theory, cfg, check_id)
    if needs_monoidal and not theory.monoidal:
        run.reason = "not-monoidal"
        return run.result(paper_ref)
    try:
        func(run)
    except _Failed:
        pass
    except (NotAvailable, NotMonoidal, NotEnumerable) as exc:
        run.reason = f"{type(exc).__name__}: {exc}"
    except (Incompatible, NotAPartialTest) as exc:
        run.reason = f"structure missing: {exc}"
    return run.result(paper_ref)


def _flag(*results):
    """Conjunction over verdicts: False dominates, then inconclusive."""
    value = True
    for r in results:
        if r.status == "fails":
            return False
        if r.status == "inconclusive":
            value = "inconclusive"
    return value


def classify(theory, cfg=None, only=None):
    """Run every check (or the named subset) and derive classification flags.

    Raises KeyError naming every id in ``only`` that names no check."""
    cfg = cfg or ProbeConfig()
    ids = CHECK_IDS if only is None else list(only)
    unknown = [cid for cid in ids if cid not in CHECK_IDS]
    if unknown:
        raise KeyError(f"unknown check id(s) {', '.join(map(repr, unknown))}")
    results = []
    # a law registered under two ids (Lemma 2.3 iv is Def. 3.3 condition
    # 5) is checked once and reported under both; its check draws nothing
    # from the id-seeded generator, so the second run would repeat the first
    ran = {}
    for cid, paper_ref, func, _ in CHECKS:
        if cid not in ids:
            continue
        if func in ran:
            r = copy.copy(ran[func])
            r.id, r.paper_ref = cid, paper_ref
        else:
            r = ran[func] = run_check(theory, cfg, cid)
        results.append(r)
    by_id = {r.id: r for r in results}

    def get(cid):
        return by_id.get(cid) or CheckResult(cid, "", "inconclusive",
                                             reason="not run")

    partial_ids = ["def3.3-c1", "def3.3-c2", "def3.3-c3"]
    if theory.monoidal:
        partial_ids += ["def3.3-c4", "def3.3-c5"]
    partial = _flag(*(get(c) for c in partial_ids))
    total = _flag(get("def3.1-c1"), get("def3.1-c2"))
    if partial is False:
        positive = observations = effectus = "inconclusive"
    else:
        positive = _flag(get("axiom-positivity"))
        observations = _flag(get("axiom-observations"))
        combining = _flag(get("axiom-combining"))
        if False in (positive, partial, combining):
            effectus = False
        elif "inconclusive" in (positive, partial, combining):
            effectus = "inconclusive"
        else:
            effectus = True
    flags = {
        "partial-form-operational-category": partial,
        "total-form-operational-category": total,
        "positive": positive,
        "observations-determine-tests": observations,
        "effectus": effectus,
        "separated": _flag(get("separation")),
        "has-direct-sums-under-bound": _flag(get("direct-sums")),
    }
    name = getattr(theory, "name", type(theory).__name__)
    return CheckReport(name, cfg, results, flags)
