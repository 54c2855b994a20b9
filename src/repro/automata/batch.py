"""Vectorized batch sampling: many Algorithm 2 walks as matrix ops.

:class:`BatchSampler` draws one pattern per *cell* (one independent
seeded walk each) with every cell advancing in lockstep: the batch
keeps a single ``current_states`` vector and, per step, selects arcs
for the whole front at once against padded 2-D views of the
:class:`~repro.automata.compiled.CompiledPFA` rows
(:class:`PackedPFA`, built once per compiled automaton and cached on
it).  Cells that finish early (``on_final="stop"``) drop out of the
front; cells that hit an absorbing state in restart mode re-enter it
at the start state — in both cases without touching any other cell's
arrays.

The lockstep-front RNG-order contract
-------------------------------------

The scalar :class:`~repro.automata.sampling.PatternSampler` consumes
its private :class:`random.Random` exactly once per visited multi-arc
state, in step order.  The batch walk preserves that contract per
cell:

* every cell owns a private RNG stream seeded exactly like the scalar
  sampler's ``random.Random(seed)``.  Cells whose integer seed spans
  more than one 32-bit word draw through numpy's legacy
  ``RandomState`` — seeded through the same ``init_by_array`` and
  generating doubles with the same two-word 53-bit recipe as CPython's
  Mersenne Twister, an equivalence this module *verifies at runtime*
  on canary seeds before trusting it (see ``_randomstate_matches``) —
  so whole blocks of draws materialise as one vector op.  Single-word
  and ``None`` seeds (where CPython's seeding differs from numpy's)
  keep a CPython-side ``random.Random``.  Either way draws enter a
  per-cell FIFO buffer and are consumed in generation order;
* per lockstep step, one buffered draw is consumed for exactly the
  front cells whose current state has more than one arc — the same
  states at which the scalar walk would have drawn — so each cell's
  consumption order is the scalar order regardless of what any other
  cell does;
* arc selection ``(cumulative_row <= u).sum()`` over the padded
  cumulative matrix equals ``bisect_right(row, u)`` for the sorted
  rows the compiler builds — an *exact* equivalence, unlike e.g. a
  searchsorted over offset-shifted rows whose float additions could
  round a boundary — clamped by the same final-sum-undershoot guard;
  per-cell log-probabilities accumulate in the same left-to-right
  float additions.

Output is therefore **bit-identical** to ``len(seeds)`` independent
``PatternSampler(pfa, seed=s, on_final=...)`` walks — symbols, states,
``log_probability`` and ``restarts`` all compare equal — whether the
numpy fast path or the scalar fallback ran.  The fallback (numpy
absent, or the ``REPRO_NO_NUMPY`` environment variable set) simply
holds the scalar samplers; the library core stays stdlib-only.

Array-shaped draws
------------------

Campaign cells sample through the scalar ``PatternSampler``; nothing in
the harness or the worker pool drives this module.

:meth:`BatchSampler.sample_batch` is the array-shaped entry point: it
returns a :class:`PatternBatch` holding the whole draw as flat ragged
arrays — per-cell symbol *ids* (the alphabet interned once per
:class:`~repro.automata.compiled.CompiledPFA` via
``interned_alphabet()``, cached like the packed rows), state paths,
log-probabilities and restart counts — instead of N materialised
:class:`~repro.automata.sampling.SampledPattern` objects.  Anything
that wants objects calls :meth:`PatternBatch.patterns` /
:meth:`PatternBatch.pattern`, which materialise lazily and
bit-identically to what :meth:`BatchSampler.sample` always returned
(``sample`` itself is now just ``sample_batch(size).patterns()``).
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.automata.compiled import CompiledPFA
from repro.automata.pfa import PFA
from repro.automata.sampling import OnFinal, PatternSampler, SampledPattern
from repro.errors import ConfigError, SamplingError

#: Environment variable forcing the scalar fallback even where numpy is
#: importable — how CI keeps the stdlib-only path green on a box that
#: has numpy installed.  Truthy = set to anything but "" or "0".
NO_NUMPY_ENV = "REPRO_NO_NUMPY"

#: Draws pre-generated per cell per refill.  Generation is ~5 ns/draw
#: through ``RandomState``, so a larger block only costs memory (8 KiB
#: per cell here); small campaigns (a handful of draws per cell) waste
#: the tail, which at this size is noise.
DRAW_BLOCK = 1024


def numpy_or_none() -> Any:
    """The numpy module, or ``None`` when absent or disabled.

    Checked dynamically (not at import) so tests and CI legs can flip
    :data:`NO_NUMPY_ENV` per process without re-importing the world.
    """
    if os.environ.get(NO_NUMPY_ENV, "") not in ("", "0"):
        return None
    try:
        import numpy
    except ImportError:  # pragma: no cover - exercised via the env var
        return None
    return numpy


def numpy_available() -> bool:
    """Whether the vectorized fast path can run in this process."""
    return numpy_or_none() is not None


def require_numpy(context: str) -> Any:
    """The numpy module, or :class:`~repro.errors.ConfigError`.

    The explicit-request guard: a caller that *asked* for the batch
    path (``use_numpy=True``) gets a
    configuration error naming the fix, not an ``ImportError`` deep
    inside a worker process.
    """
    module = numpy_or_none()
    if module is None:
        raise ConfigError(
            f"{context} requires numpy, which is unavailable here "
            f"(not installed, or disabled via {NO_NUMPY_ENV}); install "
            "numpy or drop the explicit batch request to use the "
            "bit-identical scalar path"
        )
    return module


def _seed_key(np: Any, seed: int) -> Any:
    """``abs(seed)`` as little-endian 32-bit words — the exact key
    CPython's ``random.Random(seed)`` feeds to ``init_by_array``."""
    value = abs(seed)
    words = []
    while value:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
    return np.array(words or [0], dtype=np.uint32)


#: Tri-state cache of the runtime equivalence check (None = not yet
#: run); process-global because the answer is a property of the
#: interpreter + numpy build, not of any sampler.
_RANDOMSTATE_OK: bool | None = None


def _randomstate_matches(np: Any) -> bool:
    """Whether numpy's legacy ``RandomState`` replicates CPython's
    ``random.Random`` stream for multi-word integer seeds.

    Both are MT19937 seeded via ``init_by_array`` and both build each
    double from two 32-bit outputs as ``(a >> 5) * 2**26 + (b >> 6)``
    over ``2**53`` — and numpy's legacy generator is frozen by its
    stream-compatibility guarantee — but the batch sampler's
    bit-identity contract is too important to rest on reading the
    sources: this canary check proves it on this interpreter, covering
    2/3-word keys and both sign handling and word-boundary seeds.  A
    mismatch (some exotic build) silently routes every cell through
    CPython-side draws instead; results are identical either way.
    """
    global _RANDOMSTATE_OK
    if _RANDOMSTATE_OK is None:
        canaries = (
            2**32,
            2**32 + 123,
            2**63 - 1,
            2**64 - 1,
            -(2**40 + 7),
            (1 << 96) + 17,
        )
        def replicates(seed: int) -> bool:
            reference = random.Random(seed)
            candidate = np.random.RandomState(_seed_key(np, seed))
            return candidate.random_sample(3).tolist() == [
                reference.random() for _ in range(3)
            ]

        try:
            _RANDOMSTATE_OK = all(replicates(seed) for seed in canaries)
        except Exception:  # pragma: no cover - defensive
            _RANDOMSTATE_OK = False
    return _RANDOMSTATE_OK


def _numpy_drawable(np: Any, seed: Any) -> bool:
    """Whether ``random.Random(seed)``'s stream can be produced by a
    ``RandomState``: integer seeds of more than one 32-bit word (for
    single-word keys numpy's scalar seeding path differs from
    CPython's ``init_by_array``)."""
    return (
        isinstance(seed, int)
        and not isinstance(seed, bool)
        and abs(seed) >= 2**32
        and _randomstate_matches(np)
    )


@dataclass(frozen=True)
class PackedPFA:
    """Padded 2-D array view of a :class:`CompiledPFA`'s rows.

    Every per-state tuple row becomes one matrix row padded to the
    automaton's widest state: ``cumulative`` pads with ``+inf`` (so a
    ``<= u`` count never selects a padding column), everything else
    pads with zeros that are never read (arc selection is clamped to
    ``arc_count - 1``).  Symbols are interned into ``symbol_table``
    and referenced by id so the walk stays numeric end to end.
    """

    num_states: int
    start: int
    max_arcs: int
    arc_count: Any  # int64[num_states]
    cumulative: Any  # float64[num_states, max_arcs], +inf padded
    targets: Any  # int64[num_states, max_arcs]
    log_probs: Any  # float64[num_states, max_arcs]
    symbol_ids: Any  # int64[num_states, max_arcs]
    symbol_table: Any  # object[num_symbols] of str
    #: The same table as a plain tuple — ``CompiledPFA.interned_alphabet()``
    #: order, shared (by identity) with every PatternBatch it draws.
    alphabet: tuple[str, ...]
    #: Derived lookups for the hot loop: per-state absorbing/multi-arc
    #: masks (one ``take`` instead of gather-plus-compare per step) ...
    is_absorbing: Any  # bool[num_states]
    is_multi: Any  # bool[num_states]
    #: ... flattened row-major views for single-``take`` arc lookups
    #: at ``state * max_arcs + chosen`` ...
    flat_targets: Any  # int64[num_states * max_arcs]
    flat_log_probs: Any  # float64[num_states * max_arcs]
    flat_symbol_ids: Any  # int64[num_states * max_arcs]
    #: ... the restart-mode state fusion: ``q`` for live states,
    #: ``start`` for absorbing ones, so the restart walk replaces its
    #: per-step absorbing branch with one ``take`` ...
    restart_redirect: Any  # int64[num_states]
    #: ... the same fusion pre-applied to the flat arc targets
    #: (``restart_redirect[flat_targets]``), so the restart loop steps
    #: straight from chosen arc to post-redirect state in one ``take``
    #: instead of two ...
    restart_targets: Any  # int64[num_states * max_arcs]
    #: ... and the multi-arc mask as int64, so draw-position bumps add
    #: without a per-step bool upcast ...
    multi_step: Any  # int64[num_states]
    #: ... and the clamp-fused selection columns: ``cumulative`` with
    #: each row's *last real* entry replaced by ``+inf`` and split into
    #: contiguous per-arc columns.  Counting ``column[q] <= u`` over
    #: these equals ``min(bisect_right(row, u), arc_count - 1)``
    #: exactly — the undershoot clamp disappears from the hot loop —
    #: because for a sorted row either ``u < row[-1]`` (the dropped
    #: entry contributed nothing) or ``u >= row[-1]`` (every kept entry
    #: is ``<= u``, giving ``arc_count - 1`` directly).
    select_columns: Any  # tuple[float64[num_states], ...], len max_arcs


def packed_rows(compiled: CompiledPFA) -> PackedPFA:
    """The padded array packing of ``compiled``, built once and cached.

    The cache lives on the compiled PFA instance itself (warm pool
    workers hold one :class:`CompiledPFA` per scenario cache entry, so
    repeated batches re-pack nothing) and is excluded from pickles and
    equality — it is pure derived data.
    """
    cached = compiled.__dict__.get("_packed_rows")
    if cached is not None:
        return cached
    np = require_numpy("packed_rows()")
    num_states = compiled.num_states
    max_arcs = max(
        (len(row) for row in compiled.symbols), default=0
    ) or 1
    arc_count = np.array(
        [len(row) for row in compiled.symbols], dtype=np.int64
    )
    cumulative = np.full((num_states, max_arcs), np.inf, dtype=np.float64)
    targets = np.zeros((num_states, max_arcs), dtype=np.int64)
    log_probs = np.zeros((num_states, max_arcs), dtype=np.float64)
    symbol_ids = np.zeros((num_states, max_arcs), dtype=np.int64)
    # One interning per automaton: ids here agree with every
    # PatternBatch row built over it.
    alphabet, table_index = compiled.interned_alphabet()
    for state in range(num_states):
        row_symbols = compiled.symbols[state]
        count = len(row_symbols)
        if not count:
            continue
        cumulative[state, :count] = compiled.cumulative[state]
        targets[state, :count] = compiled.targets[state]
        log_probs[state, :count] = compiled.log_probs[state]
        for arc, symbol in enumerate(row_symbols):
            symbol_ids[state, arc] = table_index[symbol]
    selection = cumulative.copy()
    for state in range(num_states):
        count = int(arc_count[state])
        if count:
            selection[state, count - 1] = np.inf
    symbol_table = np.array(alphabet or ("",), dtype=object)
    flat_symbol_ids = np.ascontiguousarray(symbol_ids.reshape(-1))
    packed = PackedPFA(
        num_states=num_states,
        start=compiled.start,
        max_arcs=max_arcs,
        arc_count=arc_count,
        cumulative=cumulative,
        targets=targets,
        log_probs=log_probs,
        symbol_ids=symbol_ids,
        symbol_table=symbol_table,
        alphabet=alphabet,
        is_absorbing=arc_count == 0,
        is_multi=arc_count > 1,
        flat_targets=np.ascontiguousarray(targets.reshape(-1)),
        flat_log_probs=np.ascontiguousarray(log_probs.reshape(-1)),
        flat_symbol_ids=flat_symbol_ids,
        restart_redirect=(
            redirect := np.where(
                arc_count == 0,
                np.int64(compiled.start),
                np.arange(num_states, dtype=np.int64),
            )
        ),
        restart_targets=redirect.take(targets.reshape(-1)),
        multi_step=(arc_count > 1).astype(np.int64),
        select_columns=tuple(
            np.ascontiguousarray(selection[:, arc])
            for arc in range(max_arcs)
        ),
    )
    object.__setattr__(compiled, "_packed_rows", packed)
    return packed


# SampledPattern is slotted, so bulk materialisation can bypass the
# frozen __init__ (which pays one object.__setattr__ per field) by
# writing through the slot descriptors directly; the resulting objects
# compare equal to normally-built ones.
_NEW_PATTERN = SampledPattern.__new__
_SET_SYMBOLS = SampledPattern.symbols.__set__
_SET_STATES = SampledPattern.states.__set__
_SET_LOG_PROBABILITY = SampledPattern.log_probability.__set__
_SET_RESTARTS = SampledPattern.restarts.__set__


class PatternBatch:
    """One lockstep draw held as arrays: the array-native form of a
    ``list[SampledPattern]``.

    Array mode (the vectorized sampler's output) keeps the whole draw
    as flat ragged arrays — symbol ids + per-cell begin/end offsets,
    state paths likewise, per-cell log-probabilities and restart
    counts.  :meth:`patterns`/:meth:`pattern` materialise
    :class:`~repro.automata.sampling.SampledPattern` views lazily and
    bit-identically to the scalar sampler's output.

    Scalar mode (:meth:`from_patterns`, the no-numpy fallback) wraps
    already-materialised patterns.
    """

    __slots__ = (
        "alphabet",
        "_table",
        "_ids",
        "_id_begins",
        "_id_ends",
        "_states",
        "_state_begins",
        "_state_ends",
        "_log_probs",
        "_restarts",
        "_patterns",
    )

    def __init__(
        self,
        *,
        alphabet: tuple[str, ...],
        table: Any,
        ids: Any,
        id_begins: Any,
        id_ends: Any,
        states: Any,
        state_begins: Any,
        state_ends: Any,
        log_probs: Any,
        restarts: Any,
    ) -> None:
        self.alphabet = alphabet
        self._table = table
        self._ids = ids
        self._id_begins = id_begins
        self._id_ends = id_ends
        self._states = states
        self._state_begins = state_begins
        self._state_ends = state_ends
        self._log_probs = log_probs
        self._restarts = restarts
        self._patterns: list[SampledPattern] | None = None

    @classmethod
    def from_patterns(
        cls,
        patterns: list[SampledPattern],
        alphabet: tuple[str, ...] = (),
    ) -> "PatternBatch":
        """Wrap eagerly-materialised patterns (the scalar fallback)."""
        batch = cls.__new__(cls)
        batch.alphabet = alphabet
        batch._table = None
        batch._ids = None
        batch._id_begins = None
        batch._id_ends = None
        batch._states = None
        batch._state_begins = None
        batch._state_ends = None
        batch._log_probs = None
        batch._restarts = None
        batch._patterns = patterns
        return batch

    def __len__(self) -> int:
        if self._patterns is not None:
            return len(self._patterns)
        return len(self._id_begins)

    def pattern(self, cell: int) -> SampledPattern:
        """Cell ``cell``'s draw as a materialised pattern, equal to the
        scalar sampler's output for that cell."""
        cached = self._patterns
        if cached is not None:
            return cached[cell]
        begin = self._id_begins[cell]
        end = self._id_ends[cell]
        pattern = _NEW_PATTERN(SampledPattern)
        _SET_SYMBOLS(pattern, tuple(self._table.take(self._ids[begin:end]).tolist()))
        _SET_STATES(
            pattern,
            tuple(
                self._states[
                    self._state_begins[cell]:self._state_ends[cell]
                ].tolist()
            ),
        )
        _SET_LOG_PROBABILITY(pattern, float(self._log_probs[cell]))
        _SET_RESTARTS(pattern, int(self._restarts[cell]))
        return pattern

    def patterns(self) -> list[SampledPattern]:
        """All cells materialised (cached after the first call).

        Bulk conversion: symbols gather as one object ``take`` + flat
        ``tolist`` + big tuple, sliced per cell (tuple slicing is a
        pointer copy), state paths likewise — the exact recipe (and
        exact output) of the pre-array-plane sampler tails.
        """
        cached = self._patterns
        if cached is not None:
            return cached
        sym_all = tuple(self._table.take(self._ids).tolist())
        path_all = tuple(self._states.tolist())
        new = _NEW_PATTERN
        result: list[SampledPattern] = []
        append = result.append
        for sym_begin, sym_end, path_begin, path_end, lp, rs in zip(
            self._id_begins.tolist(), self._id_ends.tolist(),
            self._state_begins.tolist(), self._state_ends.tolist(),
            self._log_probs.tolist(), self._restarts.tolist(),
        ):
            pattern = new(SampledPattern)
            _SET_SYMBOLS(pattern, sym_all[sym_begin:sym_end])
            _SET_STATES(pattern, path_all[path_begin:path_end])
            _SET_LOG_PROBABILITY(pattern, lp)
            _SET_RESTARTS(pattern, rs)
            append(pattern)
        self._patterns = result
        return result


@dataclass
class BatchSampler:
    """N seeded Algorithm 2 walks advanced in lockstep.

    Parameters
    ----------
    pfa:
        The automaton to walk — a :class:`PFA` or an already-built
        :class:`CompiledPFA` (one compilation shared by every cell).
    seeds:
        One RNG seed per cell; cell ``i`` of every :meth:`sample` is
        bit-identical to ``PatternSampler(pfa, seed=seeds[i],
        on_final=on_final)`` having drawn the same sequence of
        patterns.
    on_final:
        Behaviour at absorbing final states, as in the scalar sampler.
    use_numpy:
        ``None`` (default) auto-detects; ``True`` demands the fast
        path (raising :class:`~repro.errors.ConfigError` when numpy is
        unavailable); ``False`` forces the scalar fallback.

    :attr:`used_numpy` records which path actually runs — results are
    identical either way, only the throughput differs.
    """

    pfa: PFA | CompiledPFA
    seeds: Sequence[int | None]
    on_final: OnFinal = "stop"
    use_numpy: bool | None = None
    used_numpy: bool = field(init=False)
    _compiled: CompiledPFA = field(init=False, repr=False)
    _np: Any = field(init=False, repr=False)
    _packed: PackedPFA | None = field(init=False, repr=False)
    _scalar: list[PatternSampler] = field(init=False, repr=False)
    #: Per-cell draw sources: numpy ``RandomState`` for multi-word
    #: integer seeds, CPython ``random.Random`` otherwise.
    _np_rngs: list[Any] = field(init=False, repr=False)
    _py_rngs: list[random.Random | None] = field(init=False, repr=False)
    _draw_buf: Any = field(init=False, repr=False)
    _draw_flat: Any = field(init=False, repr=False)
    _draw_pos: Any = field(init=False, repr=False)
    _draw_base: Any = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.on_final not in ("stop", "restart"):
            raise SamplingError(f"unknown on_final mode {self.on_final!r}")
        if isinstance(self.pfa, CompiledPFA):
            self._compiled = self.pfa
        else:
            self._compiled = CompiledPFA.from_pfa(self.pfa)
        if self._compiled.is_absorbing(self._compiled.start):
            raise SamplingError("PFA start state has no outgoing transitions")
        if self.use_numpy is True:
            self._np = require_numpy("BatchSampler(use_numpy=True)")
        elif self.use_numpy is False:
            self._np = None
        else:
            self._np = numpy_or_none()
        self.used_numpy = self._np is not None
        if not self.used_numpy:
            self._packed = None
            self._np_rngs = []
            self._py_rngs = []
            self._draw_buf = None
            self._draw_flat = None
            self._draw_pos = None
            self._draw_base = None
            self._scalar = [
                PatternSampler(
                    self._compiled, seed=seed, on_final=self.on_final
                )
                for seed in self.seeds
            ]
            return
        np = self._np
        self._scalar = []
        self._packed = packed_rows(self._compiled)
        self._np_rngs = []
        self._py_rngs = []
        for seed in self.seeds:
            if _numpy_drawable(np, seed):
                self._np_rngs.append(
                    np.random.RandomState(_seed_key(np, seed))
                )
                self._py_rngs.append(None)
            else:
                self._np_rngs.append(None)
                self._py_rngs.append(random.Random(seed))
        cells = len(self.seeds)
        self._draw_buf = np.empty((cells, DRAW_BLOCK), dtype=np.float64)
        # Flat view of the same memory for single-`take` consumption.
        self._draw_flat = self._draw_buf.reshape(-1)
        # Every buffer row starts exhausted; filled lazily on first use.
        self._draw_pos = np.full(cells, DRAW_BLOCK, dtype=np.int64)
        self._draw_base = np.arange(cells, dtype=np.int64) * DRAW_BLOCK

    @property
    def compiled(self) -> CompiledPFA:
        """The compiled automaton every cell walks."""
        return self._compiled

    @property
    def cells(self) -> int:
        return len(self.seeds)

    def sample(self, size: int) -> list[SampledPattern]:
        """One pattern of at most ``size`` symbols per cell, in lockstep.

        Consecutive calls continue each cell's RNG stream, exactly as
        consecutive ``PatternSampler.sample`` calls would.
        """
        return self.sample_batch(size).patterns()

    def sample_batch(self, size: int) -> PatternBatch:
        """One lockstep draw per cell, kept as arrays.

        The array-native twin of :meth:`sample`: same walk, same RNG
        consumption, but the result stays a :class:`PatternBatch` of
        flat id/state arrays until something asks for objects.
        Consecutive calls continue each cell's RNG stream exactly as
        :meth:`sample` would — the two entry points are freely
        interleavable.
        """
        if size < 1:
            raise SamplingError(f"pattern size must be >= 1, got {size}")
        if not self.used_numpy:
            return PatternBatch.from_patterns(
                [sampler.sample(size) for sampler in self._scalar]
            )
        return self._sample_vectorized(size)

    def sample_many(
        self, count: int, size: int
    ) -> list[list[SampledPattern]]:
        """``count`` patterns per cell; ``result[i]`` is cell ``i``'s
        sequence, equal to that cell's scalar ``sample_many(count,
        size)``."""
        if count < 0:
            raise SamplingError(f"pattern count must be >= 0, got {count}")
        rounds = [self.sample(size) for _ in range(count)]
        return [
            [round_patterns[cell] for round_patterns in rounds]
            for cell in range(self.cells)
        ]

    def _refill(self, cell: int) -> None:
        """Regenerate cell ``cell``'s draw block, continuing its stream."""
        np_rng = self._np_rngs[cell]
        if np_rng is not None:
            self._draw_buf[cell] = np_rng.random_sample(DRAW_BLOCK)
        else:
            rng = self._py_rngs[cell]
            self._draw_buf[cell] = self._np.fromiter(
                (rng.random() for _ in range(DRAW_BLOCK)),
                dtype=self._np.float64,
                count=DRAW_BLOCK,
            )
        self._draw_pos[cell] = 0


    def _sample_vectorized(self, size: int) -> PatternBatch:
        if self.on_final == "restart":
            return self._sample_restart(size)
        return self._sample_stop(size)

    def _sample_restart(self, size: int) -> PatternBatch:
        """Restart-mode walk: the front never shrinks, so restarts fuse
        into a per-state redirect table and the loop records only each
        step's flat arc index; symbol ids, targets, restart counts, and
        state paths are all reconstructed from that record in a few
        whole-matrix ops afterwards.  Log-probabilities still
        accumulate inside the loop — a post-loop ``.sum()`` would use
        pairwise summation, not the scalar walk's left-to-right order.

        The loop itself is branch-free: a draw is *read* for every
        cell every step, but the buffer position advances only where
        the state is multi-arc — exactly where the scalar walk
        consumes one — so per-cell consumption order is untouched.
        Reading a draw a single-arc state never uses is harmless: its
        cumulative row is ``(1.0, +inf, ...)``, so any ``u < 1`` picks
        arc 0, which is also what the scalar walk does without
        drawing.
        """
        np = self._np
        packed = self._packed
        total = self.cells
        if not total:
            return PatternBatch.from_patterns([], alphabet=packed.alphabet)
        start = packed.start
        max_arcs = packed.max_arcs
        select_columns = packed.select_columns
        multi_step = packed.multi_step
        restart_targets = packed.restart_targets
        flat_targets = packed.flat_targets
        flat_log_probs = packed.flat_log_probs
        pos = self._draw_pos
        draw_flat = self._draw_flat
        draw_base = self._draw_base

        # Walk on *absolute* buffer positions (cell base + cursor) so
        # the per-step draw gather needs no base addition; the relative
        # cursors are synced back after the loop.
        abs_pos = draw_base + pos
        state = np.full(total, start, dtype=np.int64)
        logp = np.zeros(total, dtype=np.float64)
        flat_steps = np.empty((size, total), dtype=np.int64)
        check_at = 0
        for step in range(size):
            # Buffer-bounds check, deferred: positions advance by at
            # most one per step, so after seeing max position m the
            # next DRAW_BLOCK - 1 - m steps cannot read past a row.
            if step >= check_at:
                relative = abs_pos - draw_base
                highest = int(relative.max())
                if highest >= DRAW_BLOCK:
                    exhausted = relative >= DRAW_BLOCK
                    for cell in exhausted.nonzero()[0].tolist():
                        self._refill(cell)
                    abs_pos[exhausted] = draw_base[exhausted]
                    highest = int((abs_pos - draw_base).max())
                check_at = step + DRAW_BLOCK - highest
            draws = draw_flat.take(abs_pos)
            abs_pos += multi_step.take(state)
            # Counting `column <= u` over the clamp-fused selection
            # columns (see PackedPFA.select_columns) reproduces the
            # scalar bisect-plus-undershoot-guard pick exactly, one
            # contiguous 1-D compare per arc column.
            flat = state * max_arcs
            for column in select_columns:
                flat += column.take(state) <= draws
            logp += flat_log_probs.take(flat)
            flat_steps[step] = flat
            # Arc target and restart redirect, fused into one take: the
            # start state is never absorbing, so the first step needs
            # no redirect and each later step redirects the previous
            # step's target — exactly this lookup.
            state = restart_targets.take(flat)
        pos[:] = abs_pos - draw_base

        # Reconstruction, cell-major.  Every restart-mode pattern emits
        # exactly `size` symbols; the state path is the per-step targets
        # with `start` re-inserted after each absorbing one (the final
        # step's target never restarts this pattern — the walk is over).
        flat_cells = np.ascontiguousarray(flat_steps.T)
        targets_m = flat_targets.take(flat_cells)
        absorbed = packed.is_absorbing.take(targets_m[:, :-1])
        inserts_before = np.zeros((total, size), dtype=np.int64)
        np.cumsum(absorbed, axis=1, out=inserts_before[:, 1:])
        # The cumsum's final column is the full absorbed count.
        restarts = inserts_before[:, -1]
        positions = inserts_before + np.arange(1, size + 1, dtype=np.int64)
        # Paths are concatenated, not padded: per-cell offsets from the
        # exact lengths, so the int->Python conversion below touches no
        # padding columns.
        lengths_arr = 1 + size + restarts
        ends = np.cumsum(lengths_arr)
        offsets = ends - lengths_arr
        out_path = np.empty(int(ends[-1]), dtype=np.int64)
        out_path[offsets] = start
        flat_positions = positions + offsets[:, None]
        np.put(out_path, flat_positions, targets_m)
        np.put(out_path, flat_positions[:, :-1][absorbed] + 1, start)

        # Every restart-mode cell emits exactly `size` symbols, so the
        # id rows are the dense (total, size) matrix flattened with
        # stride-`size` offsets; materialisation (when anything wants
        # objects) happens inside the PatternBatch.
        sym_ids = packed.flat_symbol_ids.take(flat_cells).reshape(-1)
        sym_begins = np.arange(total, dtype=np.int64) * size
        return PatternBatch(
            alphabet=packed.alphabet,
            table=packed.symbol_table,
            ids=sym_ids,
            id_begins=sym_begins,
            id_ends=sym_begins + size,
            states=out_path,
            state_begins=offsets,
            state_ends=ends,
            log_probs=logp,
            restarts=restarts,
        )

    def _sample_stop(self, size: int) -> PatternBatch:
        """Stop-mode walk: cells that reach an absorbing state finish
        and drop out, so the loop keeps a compact front of still-walking
        cells with per-cell scatter bases into the output buffers."""
        np = self._np
        packed = self._packed
        total = self.cells
        if not total:
            return PatternBatch.from_patterns([], alphabet=packed.alphabet)
        start = packed.start
        max_arcs = packed.max_arcs
        select_columns = packed.select_columns
        is_absorbing = packed.is_absorbing
        multi_step = packed.multi_step
        flat_targets = packed.flat_targets
        flat_log_probs = packed.flat_log_probs
        pos = self._draw_pos
        draw_flat = self._draw_flat

        # The compact front: parallel arrays holding only still-walking
        # cells.  Every front cell emits exactly one symbol per loop
        # iteration, so `size` iterations bound the walk and the
        # emission column index is simply the iteration number.
        front = np.arange(total, dtype=np.int64)
        state = np.full(total, start, dtype=np.int64)
        logp = np.zeros(total, dtype=np.float64)
        path_pos = np.ones(total, dtype=np.int64)
        front_draw_base = self._draw_base

        # Per-cell outputs, scattered into as cells emit/finish; both
        # matrices are flat with precomputed per-cell bases, refreshed
        # whenever the front shrinks.  A stop-mode path is one segment:
        # the start state plus one state per emission.  Unwritten tail
        # columns of early-stopped cells are never read — the ragged
        # gather below touches only each cell's recorded prefix.
        path_width = size + 1
        all_sym_base = front * size
        all_path_base = front * path_width
        sym_base = all_sym_base
        path_base = all_path_base
        out_arcs = np.empty(total * size, dtype=np.int64)
        out_path = np.empty(total * path_width, dtype=np.int64)
        out_path[path_base] = start
        symbol_counts = np.empty(total, dtype=np.int64)
        path_lengths = np.empty(total, dtype=np.int64)
        final_logp = np.empty(total, dtype=np.float64)

        for step in range(size):
            absorbing = is_absorbing.take(state)
            if absorbing.any():
                finished = front[absorbing]
                symbol_counts[finished] = step
                path_lengths[finished] = path_pos[absorbing]
                final_logp[finished] = logp[absorbing]
                keep = ~absorbing
                front = front[keep]
                if not front.size:
                    break
                state = state[keep]
                logp = logp[keep]
                path_pos = path_pos[keep]
                sym_base = sym_base[keep]
                path_base = path_base[keep]
                front_draw_base = front_draw_base[keep]
            # As in the restart walk: read a draw for every front
            # cell, advance buffer positions only at multi-arc states
            # (where the scalar walk consumes one); unconsumed reads
            # still pick arc 0 on single-arc rows.
            taken = pos.take(front)
            if taken.max() >= DRAW_BLOCK:
                for cell in front[taken >= DRAW_BLOCK].tolist():
                    self._refill(cell)
                taken = pos.take(front)
            draws = draw_flat.take(front_draw_base + taken)
            pos[front] = taken + multi_step.take(state)
            # Clamp-fused arc selection, as in the restart walk (see
            # PackedPFA.select_columns).
            flat = state * max_arcs
            for column in select_columns:
                flat += column.take(state) <= draws
            logp += flat_log_probs.take(flat)
            np.put(out_arcs, sym_base + step, flat)
            state = flat_targets.take(flat)
            np.put(out_path, path_base + path_pos, state)
            path_pos += 1

        if front.size:
            symbol_counts[front] = size
            path_lengths[front] = path_pos
            final_logp[front] = logp

        # Ragged gather: pull each cell's written prefix out of the
        # padded output matrices into compact arrays, so the Python
        # conversions below never touch padding (cells usually stop
        # long before `size`, making the padded matrices mostly tail).
        def compact(flat_values: Any, bases: Any, counts: Any) -> Any:
            ends = np.cumsum(counts)
            begins = ends - counts
            span = int(ends[-1]) if counts.size else 0
            within = np.arange(span, dtype=np.int64)
            within -= np.repeat(begins, counts)
            within += np.repeat(bases, counts)
            return flat_values.take(within), begins, ends

        arc_ids, sym_begins, sym_ends = compact(
            out_arcs, all_sym_base, symbol_counts
        )
        path_states, path_begins, path_ends = compact(
            out_path, all_path_base, path_lengths
        )
        # Arc indices become alphabet ids with one flat take; stop mode
        # never restarts.  Materialisation lives in the PatternBatch.
        return PatternBatch(
            alphabet=packed.alphabet,
            table=packed.symbol_table,
            ids=packed.flat_symbol_ids.take(arc_ids),
            id_begins=sym_begins,
            id_ends=sym_ends,
            states=path_states,
            state_begins=path_begins,
            state_ends=path_ends,
            log_probs=final_logp,
            restarts=np.zeros(total, dtype=np.int64),
        )
