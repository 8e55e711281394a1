"""Per-layer tracing, host-speed sampling and micro-cases for the cox245
benchmark.

The tracer wraps public functions of the package from outside: each
wrapped function is replaced in every ``cox245`` module that holds a
reference to it, so calls through ``from .x import f`` are seen too.  A
timed wrapper records ``calls``, inclusive seconds ``s`` and ``self_s``
(inclusive time minus the time of wrapped callees).  A counting wrapper
records ``calls`` only; it is used for the arithmetic and the neighbor
oracle, called up to millions of times, where a clock read per call would
swamp the work measured.  Times are rescaled to nominal seconds by the
child (see the host speed section).

Nothing here changes a result: wrappers pass arguments and return values
through untouched, and ``uninstall`` puts every original back.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import sys
import time

# (metric prefix, module, attribute, timed)
LAYERS = (
    ("numberfield.iq_mul", "cox245.numberfield", "iq_mul", False),
    ("numberfield.iq_sign", "cox245.numberfield", "iq_sign", False),
    ("coxeter.min_coset_rep", "cox245.coxeter", "min_coset_rep", True),
    ("coxeter.min_double_coset_rep", "cox245.coxeter", "min_double_coset_rep", True),
    ("complexgraph.neighbors", "cox245.complexgraph", "neighbors", False),
    ("complexgraph.build_ball", "cox245.complexgraph", "build_ball", True),
    ("complexgraph.graph_distance", "cox245.complexgraph", "graph_distance", True),
    ("edgetypes.key_partners", "cox245.edgetypes", "key_partners", True),
    ("edgetypes.type_key_complex", "cox245.edgetypes", "type_key_complex", True),
    ("edgetypes.type_key_cayley", "cox245.edgetypes", "type_key_cayley", True),
    ("implications.find_witness", "cox245.implications", "find_witness", True),
    ("implications.close_orbit", "cox245.implications", "close_orbit", True),
    ("certificates.string_key", "cox245.certificates", "string_key", True),
    ("certificates.verify_family", "cox245.certificates", "verify_family", True),
    ("certificates.verify_d8_chain", "cox245.certificates", "verify_d8_chain", True),
    ("certificates.verify_connecting_list", "cox245.certificates", "verify_connecting_list", True),
    ("certificates.auto_search_d10", "cox245.certificates", "auto_search_d10", True),
    ("discs.enumerate_discs", "cox245.discs", "enumerate_discs", True),
    ("discs.canonical_form", "cox245.discs", "canonical_form", True),
    ("discs.curvature_profile", "cox245.discs", "curvature_profile", True),
)

# Extra counts taken from a wrapped call's result: prefix -> (name, fn).
OUTCOMES = {
    "complexgraph.build_ball": ("vertices", len),
    "implications.find_witness": ("found", lambda w: int(w is not None)),
    "discs.enumerate_discs": ("classes", len),
}


class Tracer:
    """Installs the wrappers, accumulates per-layer stats, undoes itself."""

    def __init__(self):
        self.stats: dict[str, dict[str, float]] = {}
        self.slabs = []  # every slab build_ball returned, for fingerprints
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    def _counted(self, prefix, fn):
        st = self.stats.setdefault(prefix, {"calls": 0})

        def counted(*args, **kwargs):
            st["calls"] += 1
            return fn(*args, **kwargs)
        return counted

    def _timed(self, prefix, fn, on_result=None):
        st = self.stats.setdefault(prefix, {"calls": 0, "s": 0.0, "self_s": 0.0})
        stack = self._stack
        clock = time.perf_counter

        def timed(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                st["calls"] += 1
                st["s"] += dt
                st["self_s"] += dt - children[0]
                if stack:
                    stack[-1][0] += dt
            if on_result is not None:
                on_result(out)
            return out
        return timed

    def _replace(self, original, wrapper):
        """Swap ``original`` for ``wrapper`` in every loaded cox245 module."""
        for name, mod in list(sys.modules.items()):
            if name != "cox245" and not name.startswith("cox245."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self):
        for prefix, modname, attr, timed in LAYERS:
            original = getattr(sys.modules[modname], attr)
            if timed:
                wrapper = self._timed(prefix, original, self._outcome(prefix))
            else:
                wrapper = self._counted(prefix, original)
            self._replace(original, wrapper)
        self._wrap_canonical_word()

    def _outcome(self, prefix):
        """Callback that adds the layer's result count, if it has one."""
        if prefix not in OUTCOMES:
            return None
        key, measure = OUTCOMES[prefix]
        st = self.stats.setdefault(prefix, {"calls": 0, "s": 0.0, "self_s": 0.0})
        st[key] = 0
        keep_slab = prefix == "complexgraph.build_ball"

        def on_result(out):
            st[key] += measure(out)
            if keep_slab:
                self.slabs.append(out)
        return on_result

    def _wrap_canonical_word(self):
        """``canonical_word`` is a cached method; the module-level function
        and every ``Vertex.word`` go through it, so the method is wrapped."""
        cls = sys.modules["cox245.coxeter"].GroupElement
        original = cls.canonical_word
        timed = self._timed("coxeter.canonical_word", original)
        st = self.stats["coxeter.canonical_word"]
        st["computed"] = 0

        def canonical_word(g):
            if g._word is None:
                st["computed"] += 1
            return timed(g)
        self._undo.append((cls, "canonical_word", original))
        cls.canonical_word = canonical_word

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# --- host speed -------------------------------------------------------------
#
# The throughput of a shared host's CPU swings by up to 1.5x, per vCPU, over
# seconds to minutes, and the package's code slows with it.  A fixed loop run
# between the package's own bytecodes tracks the swing (on a 2-vCPU VM its
# duration correlated at r = 0.7 to 0.9 with 0.3 s chunks of ball building
# and disc enumeration), so each measured time is rescaled to a nominal host
# on which the loop takes NOMINAL_REF_S.

REF_ITERATIONS = 2_000
NOMINAL_REF_S = 0.0005
SAMPLE_PERIOD_S = 0.05


def reference_sample() -> float:
    """Seconds for the reference loop: integer arithmetic and a dict keyed
    by tuples, like the package's own inner loops.  The collector is off
    while it runs, so no collection of the measured program lands in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table = {}
        acc = 0
        for i in range(REF_ITERATIONS):
            key = (i & 255, i >> 8)
            table[key] = acc
            acc = (acc * 33 + table[key] + i) & 0xFFFF
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def speed_factor(samples) -> float:
    """Mean of nominal over measured reference time, with the top and bottom
    5% of samples dropped: multiply a wall time by it to get nominal time."""
    ordered = sorted(samples)
    k = len(ordered) // 20
    return statistics.fmean(NOMINAL_REF_S / x for x in ordered[k:len(ordered) - k])


class SpeedProbe:
    """While active, a SIGALRM handler takes a reference sample every
    SAMPLE_PERIOD_S of wall time, in the thread running the measured code."""

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame):
        self.samples.append(reference_sample())

    def __enter__(self):
        for _ in range(5):  # let the interpreter specialize the loop first
            reference_sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self) -> float:
        """Speed factor over the samples taken; an interval too short for
        five samples is measured right after instead."""
        if len(self.samples) < 5:
            return measured_speed()
        return speed_factor(self.samples)


def measured_speed(count: int = 20, warmup: int = 5) -> float:
    """Speed factor from ``count`` reference samples taken now, after
    ``warmup`` discarded ones: the interpreter specializes the loop's
    bytecode over its first runs."""
    samples = [reference_sample() for _ in range(warmup + count)]
    return speed_factor(samples[warmup:])


# --- micro-cases ------------------------------------------------------------

WORD_LENGTHS = (10, 20, 30, 40)


def reduced_words(rng: random.Random, length: int, count: int) -> list[str]:
    """Random reduced words: each step appends a generator that is not a
    right descent, so the Coxeter length grows by one per letter."""
    from cox245.coxeter import GENERATORS, element_of_word, identity, right_descents

    gens = {x: element_of_word(x) for x in GENERATORS}
    words = []
    for _ in range(count):
        word, g = "", identity()
        while len(word) < length:
            x = rng.choice([x for x in GENERATORS if x not in right_descents(g)])
            word += x
            g = g * gens[x]
        words.append(word)
    return words


def _per_call(loop, calls: int, repeats: int) -> float:
    """Median over ``repeats`` runs of ``loop()`` of the nominal seconds per
    call, each run rescaled by the host speed measured just before it."""
    samples = []
    for _ in range(repeats):
        speed = measured_speed(count=3, warmup=1)
        t0 = time.perf_counter()
        loop()
        samples.append((time.perf_counter() - t0) / calls * speed)
    return statistics.median(samples)


def micro(seed: int, words_per_length: int = 24, repeats: int = 5) -> dict[str, float]:
    """Per-call costs of the kernel on words drawn with ``seed``.

    For each word length: microseconds per ``element_of_word`` and per
    uncached ``canonical_word``, and nanoseconds per ``iq_mul`` and
    ``iq_sign`` on the entries of the drawn elements' matrices.
    """
    from cox245.coxeter import GroupElement, element_of_word
    from cox245.numberfield import iq_mul, iq_sign

    rng = random.Random(seed)
    out = {}
    for length in WORD_LENGTHS:
        words = reduced_words(rng, length, words_per_length)
        mats = [element_of_word(w).mat for w in words]
        if any(len(GroupElement(m).canonical_word()) != length for m in mats):
            raise AssertionError(f"a drawn word of length {length} is not reduced")
        entries = [e for m in mats for e in m]
        pairs = list(zip(entries, reversed(entries)))

        def build():
            for w in words:
                element_of_word(w)

        def canonical():
            for m in mats:
                GroupElement(m).canonical_word()  # a fresh element has no cached word

        def mul():
            for x, y in pairs:
                iq_mul(x, y)

        def sign():
            for x in entries:
                iq_sign(x)
        out[f"micro.iq_mul.len{length}"] = _per_call(mul, len(pairs), repeats) * 1e9
        out[f"micro.iq_sign.len{length}"] = _per_call(sign, len(entries), repeats) * 1e9
        out[f"micro.element_of_word.len{length}"] = _per_call(build, len(words), repeats) * 1e6
        out[f"micro.canonical_word.len{length}"] = _per_call(canonical, len(mats), repeats) * 1e6
    return out
