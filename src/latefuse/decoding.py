"""Autoregressive decoding loops over logit providers.

One greedy loop, `fused_greedy_decode`, serves every fusion mode: each
step decides a token from the calibrated rows, and the mode only changes
how (one provider's argmax in mode llm or asr, a fused step in static or
uadf). `greedy_decode` is that loop in mode llm. `beam_search` generates
the N-best lists of a chunk of utterances at once. All decoders start
the history at BOS, are deterministic, and stop at EOS or a length cap.
Beam search reads only a keyed provider (a block of rows `log_rows`
indexed by `row_key`; see `providers`), once per key for every
utterance of a call. The utterances search in lockstep: a step scores
each one's live beams x the top-ranked ids of its row, all of them in a
few array ops. A decode set calibrates the block once (`softmax_rows`),
and each step reads its row there (`calibrated_row`).

A corrector with `lattices` gives rows of a chunk of utterances as one
block, each row keyed by its step count t and a context, the last ids of
the history: `providers.NgramCorrector` the rows of the N-best prefixes,
keyed by their n-gram contexts, and `wire.ExternalProvider`, a corrector
served over the wire, the argmax paths its client holds from BOS, keyed
by the whole history padded with BOS to `wire.MAX_AHEAD` ids. A step's
inputs depend on nothing else, so in modes llm, static and uadf (the
fused ones with a keyed acoustic model) a decode set decides every
config's choice at
every key of a chunk of `CHUNK_UTTERANCES` utterances in one array op
(`choice_tables`), and each decode walks its utterance's table: a step
whose (t, context) it holds reads its choice there, and any other step
reads the providers. A step read off the table is built only when the
result's `steps` is first read. That walk is the one greedy loop: a
decode without a table walks an empty one, so every step reads the
providers.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import metrics
from .core import (TokenSeq, Vocabulary, argmax_token, entropy, sigmoid, softmax_rows,
                   softmax_with_temperature)
from .errors import ConfigurationError, InvalidInputError, InvalidParameterError
from .fusion import FusionConfig, FusionStep, fuse_step
from .providers import UtteranceContext

# Length cap for decoding without a reference to scale against.
DEFAULT_MAX_LEN = 64
# Largest length factor: factor x (words + 1) must stay a finite float.
MAX_LEN_FACTOR = 1e30
# Utterances whose `choice_tables` a decode set builds as one block. Each
# block op's fixed cost is paid once per chunk, but a bigger block means
# bigger fresh arrays, which the allocator may map and fault in anew: on
# the bench's `fuse` workload (V = 200, about 17 rows per utterance),
# chunks of 4 to 16 decoded about equally fast, but peak memory grew with
# the chunk, and with glibc's mmap threshold held at 128 KiB chunks of 4
# cut the decode commands' time by about 27%, chunks of 8 by 16%. A whole
# set's block was slower.
CHUNK_UTTERANCES = 4
# Widest beam `beam_search` runs. A step scores up to beam_width x V
# candidates per utterance of a call (a widened step scores all V ids per
# beam), and a call holds one utterance at least (see
# `corpus.SEARCH_CANDIDATES`), so a wider beam only exhausts memory.
MAX_BEAM_WIDTH = 1024


class DecodeResult:
    """A decode's tokens, how it ended ("eos" | "max-length"), and its
    steps: each step's distribution in mode llm or asr, its `FusionStep`
    in static or uadf.

    A decode records its steps in a list, and `steps` makes it a tuple
    the first time it is read, then keeps the tuple. A step that a decode
    read off its choice table is recorded as the table's row index, and
    `steps` builds it there (`ChoiceTable.step`); a sweep never reads it,
    nor does a plain `decode`.
    """

    __slots__ = ("tokens", "terminated", "_steps", "_table")

    def __init__(self, tokens: TokenSeq, steps, terminated: str, table=None):
        self.tokens = tokens
        self.terminated = terminated
        self._steps = steps
        self._table = table

    @property
    def steps(self) -> tuple:
        steps = self._steps
        if type(steps) is list:
            table = self._table
            self._steps = steps = tuple(table.step(s) if type(s) is int else s for s in steps)
            self._table = None
        return steps


def calibrated_row(provider, history: TokenSeq, ctx: UtteranceContext, tau: float,
                   block: np.ndarray | None = None) -> np.ndarray:
    """softmax_with_temperature(provider.next_logits(history, ctx), tau).

    `block` is None, or `softmax_rows(provider.log_rows, tau)` of a keyed
    provider made read-only: the row is then `block[row_key(...)]`. A row
    that `softmax_rows` flagged (all NaN) is read and normalised here, so
    its check raises its own error.
    """
    if block is not None:
        dist = block[provider.row_key(len(history), ctx)]
        if not math.isnan(dist[0]):
            return dist
    return softmax_with_temperature(provider.next_logits(history, ctx), tau)


class ChoiceTable(NamedTuple):
    """One config's choices at the lattice keys of one utterance of a chunk
    (see `choice_tables`): the step after t tokens whose last ids are
    `context` is row `index[(t, context)]` of the chunk's blocks. The
    context is the corrector's key window: the last order - 1 ids in
    process (`NgramCorrector`), and over the wire the last
    `wire.MAX_AHEAD` ids of the history less its BOS, padded with BOS
    (`wire.ExternalProvider`), which is the whole history."""

    index: dict               # (t, context) -> row i of the chunk
    start: tuple              # the context of the first step: BOS, as often as it holds ids
    p_llm: np.ndarray         # the chunk's calibrated corrector rows, read-only
    p_asr: np.ndarray | None  # the chunk's calibrated acoustic rows, read-only; None in llm
    u: list | None            # row i's entropy of p_llm in uadf, else None; None in llm
    w: list | None            # row i's weight of p_asr; None in mode llm
    chosen: list              # row i's choice

    def step(self, i: int):
        """The step a decode reads at row i: the row `p_llm[i]` in mode llm,
        else the `FusionStep` of the row's inputs, weight and choice, the
        step `fusion.decide` gives there."""
        if self.w is None:
            return self.p_llm[i]
        return FusionStep(self.p_llm[i], self.p_asr[i], self.u[i], self.w[i], self.chosen[i])


def _acoustic_rows(provider, ctxs, lattices, block: np.ndarray):
    """A, the read-only `(B, V)` rows of a keyed provider's calibrated
    `block` at the length t + 1 of each key (t, context) of `lattices`
    (each utterance's keys, or None), gathered by `row_key` with one index
    (a keyed row depends on the history only through its length), and a
    mask of the keys whose row `calibrated_row` would take there: a row
    that `softmax_rows` flagged is masked, and so is every row of an
    utterance whose `row_key` raises."""
    keys, given = [], []
    for ctx, lattice in zip(ctxs, lattices):
        if lattice is not None:
            try:
                utt_keys = [provider.row_key(t + 1, ctx) for t, _ in lattice]
            except InvalidInputError:
                utt_keys = None
            keys += [0] * len(lattice) if utt_keys is None else utt_keys
            given += [utt_keys is not None] * len(lattice)
    a = block[keys]
    a.flags.writeable = False
    return a, np.array(given) & ~np.isnan(a[:, 0])


def choice_tables(llm_provider, asr_provider, cfgs, ctxs, block: np.ndarray | None) -> list:
    """For each utterance of `ctxs`, a chunk of a decode set, one
    `ChoiceTable` per config of `cfgs` (which share mode, tau1 and tau2;
    mode llm, static or uadf), decided at once on the keys of every
    utterance of the chunk that the corrector's `lattices(ctxs)` gives
    keys; or None for an utterance without them.

    The chunk's corrector rows are calibrated as one block (`softmax_rows`
    at tau1, P) and, in uadf, take their entropies u as one block. In the
    fused modes, A holds the secondary's `calibrated_row` for each key's
    length t + 1, from `block`, its calibrated rows at tau2
    (`_acoustic_rows`; in mode llm `block` is not read), and W,
    `(K, B)`, each config's weight per row: w_asr, or sigmoid(u) - beta
    (`uadf_weight`), with `math`'s sigmoid and a float64 subtraction. The
    choices are then `argmax(P + W * A)` over the vocabulary, one multiply,
    add and argmax per config for every row of the chunk, or `argmax(P)`
    in mode llm. Elementwise multiply and add are correctly rounded and
    argmax takes the first maximum, so every cell equals `fusion.decide`'s
    choice bit for bit.

    A row that `softmax_rows` flags, or whose acoustic row raises, stays
    off its utterance's table, so nothing here raises for it: the step
    that reads it reads the providers and raises that check's error there,
    after the utterances before it have decoded.
    """
    cfg = cfgs[0]
    lattices, raw = llm_provider.lattices(ctxs)
    if not len(raw):  # no list of the chunk is usable
        return [None] * len(ctxs)
    p = softmax_rows(raw, cfg.tau1)
    p.flags.writeable = False
    kept = ~np.isnan(p[:, 0])
    if cfg.mode == "llm":
        a = u = ws = None
        chosen = [p.argmax(axis=1).tolist()] * len(cfgs)
    else:
        a, given = _acoustic_rows(asr_provider, ctxs, lattices, block)
        kept &= given
        if cfg.mode == "uadf":
            u = entropy(p)
            w = np.array([sigmoid(h) for h in u]) - np.array([c.beta for c in cfgs], float)[:, None]
            ws = w.tolist()
        else:
            u = [None] * len(p)
            w = np.array([c.w_asr for c in cfgs], float)[:, None]
            ws = [[c.w_asr] * len(p) for c in cfgs]
        # one config at a time, in the raw block, which nothing reads now: a
        # fresh (K, B, V) block costs more than the K - 1 extra calls
        fused_rows, chosen = raw, []
        for w_k in w:
            np.multiply(w_k[:, None], a, out=fused_rows)
            fused_rows += p
            chosen.append(fused_rows.argmax(axis=1).tolist())
    kept = None if kept.all() else kept.tolist()
    tables, lo = [], 0
    for keys in lattices:
        if keys is None:
            tables.append(None)
            continue
        hi = lo + len(keys)
        index = dict(zip(keys, range(lo, hi)))
        if kept is not None:
            index = {key: i for key, i in index.items() if kept[i]}
        tables.append([ChoiceTable(index, keys[0][1], p, a, u, None if ws is None else ws[k],
                                   chosen[k]) for k in range(len(cfgs))])
        lo = hi
    return tables


def greedy_decode(provider, ctx: UtteranceContext, max_len: int = DEFAULT_MAX_LEN,
                  tau: float = 1.0) -> DecodeResult:
    """`fused_greedy_decode` in mode llm at `tau`, with no secondary."""
    return fused_greedy_decode(provider, None, FusionConfig(mode="llm", tau1=tau), ctx,
                               max_len)


def fused_greedy_decode(llm_provider, asr_provider, cfg: FusionConfig,
                        ctx: UtteranceContext, max_len: int = DEFAULT_MAX_LEN,
                        block: np.ndarray | None = None,
                        table: ChoiceTable | None = None) -> DecodeResult:
    """Greedy decoding in any of cfg's modes, with one shared history
    driving the providers.

    A step of mode llm or asr is the argmax of that provider's
    `calibrated_row` (at tau1 or tau2), and its recorded step is that
    distribution. A fused step (static or uadf) is the `fuse_step` of the
    corrector's row, read first, and the acoustic model's `calibrated_row`
    at tau2. `block` is None, or the calibrated rows of the keyed provider
    whose `calibrated_row` the steps read (see `decode_eval_set`): the
    primary in mode llm, the acoustic model in the others.

    `table` is cfg's `ChoiceTable` for `ctx` (see `choice_tables`): one
    without weights in mode llm, one with weights in static or uadf, none
    in asr; any other raises InvalidParameterError. The decode walks it
    along the step count t and the last ids of the history, as many as
    its context holds, never the n-gram corrector's key (vote row,
    context): past the longest hypothesis, or
    with no N-best list, one key spans several lengths, and so several
    acoustic rows. A step whose (t, context) the table holds takes the table's
    choice, and its recorded step, built from the table's rows when
    `steps` is first read, equals the step the providers would give; any
    other step reads them as above. A decode without a table walks an
    empty index, so every step reads the providers.
    """
    if max_len < 1:
        raise InvalidParameterError(f"max_len must be >= 1, got {max_len}")
    fused = cfg.mode in ("static", "uadf")
    if fused and llm_provider.vocab is not asr_provider.vocab and \
            llm_provider.vocab != asr_provider.vocab:
        raise ConfigurationError("providers must share one vocabulary")
    # the provider whose `calibrated_row` the steps read, and its tau
    provider, tau = (llm_provider, cfg.tau1) if cfg.mode == "llm" else (asr_provider, cfg.tau2)

    if table is not None and (cfg.mode == "asr" or fused == (table.w is None)):
        raise InvalidParameterError(
            f"a choice table {'without' if table.w is None else 'with'} weights does not fit "
            f"mode {cfg.mode}")
    index, context, chosen = (table.index, table.start, table.chosen) if table is not None \
        else ({}, (), None)
    tokens, steps = [], []
    for t in range(max_len):
        i = index.get((t, context))
        if i is not None:
            token = chosen[i]
            steps.append(i)
        else:
            history = (Vocabulary.BOS, *tokens)
            if fused:
                step = fuse_step(llm_provider.next_logits(history, ctx),
                                 calibrated_row(provider, history, ctx, tau, block), cfg)
                token = step.chosen
            else:
                step = calibrated_row(provider, history, ctx, tau, block)
                token = argmax_token(step)
            steps.append(step)
        tokens.append(token)
        if token == Vocabulary.EOS:
            return DecodeResult(tuple(tokens), steps, "eos", table)
        if index:
            context = (*context, token)[1:]
    return DecodeResult(tuple(tokens), steps, "max-length", table)


def _ranked_row(logits, v: int, m: int):
    """A provider's row for `beam_search`, copied into a new float64 array
    (never normalised where the provider keeps it), checked (V entries, all
    finite), log-normalised with `math.log` of its sum of exponentials
    (`np.log` differs in the last bit on some inputs, which would change
    the N-best lists) and ranked (by value descending, then by id). Gives
    the row, its first m ranked ids sorted, their values, and the (m+1)-th
    ranked value (-inf when m is V)."""
    logp = np.array(logits, dtype=np.float64)
    if logp.shape != (v,):
        raise InvalidInputError(f"logit rows must have vocabulary size {v}, got "
                                f"shape {logp.shape}")
    if not np.isfinite(logp).all():
        raise InvalidInputError("logit rows must be finite")
    logp -= logp.max()
    logp -= math.log(np.exp(logp).sum())
    order = np.argsort(-logp, kind="stable")
    ids = np.sort(order[:m])
    return logp, ids, logp[ids], logp[order[m]] if m < v else -math.inf


def _full_step(base: np.ndarray, logp: np.ndarray, beam_width: int):
    """One utterance's step over every id: of its live beams' scores `base`
    x the row `logp`, the first beam_width by score descending, then by
    flat index, as (parent slots, ids, scores) in flat index order."""
    scores = (base[:, None] + logp).ravel()
    flat = np.sort(np.argsort(-scores, kind="stable")[:beam_width])
    return *np.divmod(flat, logp.size), scores[flat]


def beam_search(provider, ctxs, beam_width: int, n_out: int,
                max_lens) -> list[list[tuple[TokenSeq, float]]]:
    """Beam search on total log-probability, with no length penalty, of
    each utterance of `ctxs` up to its cap in `max_lens`, over a keyed
    provider (see `providers`; any other raises InvalidParameterError
    before a row is read): one N-best list per utterance, in order. EOS
    retires a beam into its utterance's pool, which the live beams join at
    the cap; the pool is ranked by score, then lexicographically by
    sequence, so beam_width 1 gives the greedy decode.

    The utterances search in lockstep: a step scores the `(U, W)` live
    scores (-inf past an utterance's live beams) x the first
    m = min(beam_width, V) ranked ids of each one's row, and each
    utterance keeps its first k = min(beam_width, live x m) by score, then
    flat index, which is lexicographic order. A row is read and ranked
    once per key and call, through `next_logits` of a history of BOS alone
    as long as the step's: the keyed contract gives every history of that
    length the key's row. If an utterance's best beam plus
    the (m+1)-th ranked value reaches its k-th score, its step scores
    every id (`_full_step`); else no id left out can, so the lists equal a
    full step's bit for bit. A step keeps each live beam's parent slot and
    id, and an ended beam's sequence is read back along them.
    """
    if not MAX_BEAM_WIDTH >= beam_width >= n_out >= 1:
        raise InvalidParameterError(
            f"need {MAX_BEAM_WIDTH} >= beam_width >= n_out >= 1, got ({beam_width}, {n_out})"
        )
    if min(max_lens, default=1) < 1:
        raise InvalidParameterError(f"max_len must be >= 1, got {min(max_lens)}")
    if len(max_lens) != len(ctxs):
        raise InvalidParameterError(
            f"need one max_len per utterance, got {len(max_lens)} for {len(ctxs)}")
    row_key = getattr(provider, "row_key", None)
    if row_key is None:
        raise InvalidParameterError(
            f"beam_search needs a keyed provider, and {type(provider).__name__} has no row_key")
    if not ctxs:
        return []

    v = provider.vocab.size
    m = min(beam_width, v)
    small = np.min_scalar_type(max(beam_width, v) - 1)  # holds every slot and id
    keys, ranked = {}, []  # row key -> its index in ranked, each key's `_ranked_row`
    steps = []  # per step: the live utterances, their live beams' parent slots and ids
    ended = []  # per step: utterance, step, parent slot, id and score of each ended beam
    act, n_live, after = np.arange(len(ctxs)), np.ones(len(ctxs), dtype=int), ()
    scores = np.zeros((len(ctxs), 1))
    for t in range(max(max_lens)):
        ri = []
        for u in act.tolist():
            key = row_key(t + 1, ctxs[u])
            if key not in keys:  # every history of length t + 1 reads the key's row
                keys[key] = len(ranked)
                ranked.append(_ranked_row(
                    provider.next_logits((Vocabulary.BOS,) * (t + 1), ctxs[u]), v, m))
            ri.append(keys[key])
        if len(ranked) > len(after):
            top_ids, top_vals, after = (np.array(col) for col in list(zip(*ranked))[1:])
        ri = np.array(ri)
        cand = (scores[:, :, None] + top_vals[ri][:, None, :]).reshape(len(act), -1)
        n, k = cand.shape[1], np.minimum(beam_width, n_live * m)
        # the k-th largest score, or -inf where k is every live candidate
        boundary = np.full(len(act), -np.inf) if n < beam_width else np.where(
            k == beam_width, np.partition(cand, n - beam_width, axis=1)[:, n - beam_width],
            -np.inf)
        taken = cand > boundary[:, None]
        tie_rows, tie_cols = (cand == boundary[:, None]).nonzero()
        first = np.arange(len(tie_rows)) - tie_rows.searchsorted(tie_rows) < \
            (k - taken.sum(axis=1))[tie_rows]  # each row's first ties, by flat index
        taken[tie_rows[first], tie_cols[first]] = True
        rows, cols = taken.nonzero()
        flat = np.full((len(act), k.max()), n - 1)  # each row's k taken, in flat order
        flat[rows, np.arange(len(rows)) - (k.cumsum() - k).repeat(k)] = cols
        taken = np.arange(flat.shape[1]) < k[:, None]
        new = np.take_along_axis(cand, flat, axis=1)
        parents, cols = np.divmod(flat, m)
        ids = np.take_along_axis(top_ids[ri], cols, axis=1)
        if m < v:  # fl(s + r) is monotone in s and in r, so best + after bounds the rest
            for a in np.flatnonzero(scores.max(axis=1) + after[ri] >= boundary).tolist():
                parents[a], ids[a], new[a] = _full_step(scores[a, :n_live[a]],
                                                        ranked[ri[a]][0], beam_width)
        ends = taken & ((ids == Vocabulary.EOS) | (t + 1 >= np.array(max_lens)[act])[:, None])
        a, c = ends.nonzero()
        ended.append((act[a], np.full(len(a), t), parents[a, c], ids[a, c], new[a, c]))
        keep = taken & ~ends
        n_live = keep.sum(axis=1)
        go = n_live > 0
        if not go.any():
            break
        act, n_live = act[go], n_live[go]
        order = np.argsort(~keep[go], axis=1, kind="stable")[:, :n_live.max()]
        parents, ids, new = (np.take_along_axis(x[go], order, axis=1) for x in (parents, ids, new))
        scores = np.where(np.arange(order.shape[1]) < n_live[:, None], new, -np.inf)
        steps.append((act, parents.astype(small), ids.astype(small)))

    us, ts, slots, last, final = (np.concatenate(col) for col in zip(*ended))
    # only a beam scoring at least its utterance's n_out-th best score is listed
    by_score = np.lexsort((-final, us))
    first = us[by_score].searchsorted(np.arange(len(ctxs) + 1))
    listed = final >= final[by_score[np.minimum(first[:-1] + n_out, first[1:]) - 1]][us]
    us, ts, slots, last, final = (col[listed] for col in (us, ts, slots, last, final))
    seqs = np.empty((len(us), ts.max() + 1), dtype=small)
    seqs[np.arange(len(us)), ts] = last
    for s in range(ts.max() - 1, -1, -1):
        deeper = ts > s
        s_act, s_parents, s_ids = steps[s]
        r, c = s_act.searchsorted(us[deeper]), slots[deeper]
        seqs[deeper, s] = s_ids[r, c]
        slots[deeper] = s_parents[r, c]
    pools = [[] for _ in ctxs]
    for u, t, seq, score in zip(us.tolist(), ts.tolist(), seqs.tolist(), final.tolist()):
        pools[u].append((tuple(seq[:t + 1]), score))
    for pool in pools:
        pool.sort(key=lambda item: (-item[1], item[0]))
    return [pool[:n_out] for pool in pools]


def check_max_len_factor(factor: float):
    """Refuse a length factor; a caller checks it before opening a provider."""
    if not 0 < factor <= MAX_LEN_FACTOR:
        raise InvalidParameterError(
            f"max_len_factor must be in (0, {MAX_LEN_FACTOR:g}], got {factor}")


def evaluation_max_len(reference_words, factor: float = 2.0) -> int:
    """Length cap for scoring runs: factor x (words + EOS), at least 2."""
    check_max_len_factor(factor)
    return max(2, math.ceil(factor * (len(reference_words) + 1)))


def decode_eval_set(llm_provider, asr_provider, cfgs, eval_set,
                    max_len_factor: float = 2.0):
    """Decode (ctx, reference_words) pairs at each of `cfgs`.

    For each utterance, in order, yields one DecodeResult per config, in
    config order. The configs must share mode, tau1 and tau2. If the
    provider whose `calibrated_row` the steps read (the primary at tau1 in
    mode llm, the acoustic model at tau2 in the others) is keyed, its
    `log_rows` are calibrated once, by `softmax_rows`, into one read-only
    block that every decode reads. In modes llm, static and uadf, a
    corrector with `lattices` gets one set of `choice_tables` per chunk of
    `CHUNK_UTTERANCES` utterances, which their decodes walk, if the mode is
    llm or the acoustic model is keyed and has the corrector's vocabulary.
    The provider whose argmax the mode follows, the acoustic model in mode
    asr and the corrector in the others, is told the utterances first, in
    order, if it has a `prefetch` method (one served over the wire), so it
    can fetch the first rows of many of them per round trip, each with its
    argmax path.
    """
    if len({(c.mode, c.tau1, c.tau2) for c in cfgs}) > 1:
        raise InvalidParameterError("configs must share mode, tau1 and tau2")
    eval_set = list(eval_set)
    mode = cfgs[0].mode if cfgs else None
    primary = asr_provider if mode == "asr" else llm_provider
    if hasattr(primary, "prefetch"):
        primary.prefetch([(ctx, None) for ctx, _ in eval_set])
    keyed = llm_provider if mode == "llm" else asr_provider
    block = None
    if cfgs and hasattr(keyed, "row_key"):
        block = softmax_rows(keyed.log_rows, cfgs[0].tau1 if mode == "llm" else cfgs[0].tau2)
        block.flags.writeable = False
    with_tables = mode in ("llm", "static", "uadf") and hasattr(llm_provider, "lattices") and (
        mode == "llm" or block is not None and asr_provider.vocab == llm_provider.vocab)
    for lo in range(0, len(eval_set), CHUNK_UTTERANCES):
        chunk = eval_set[lo:lo + CHUNK_UTTERANCES]
        tables = choice_tables(llm_provider, asr_provider, cfgs, [ctx for ctx, _ in chunk],
                               block) if with_tables else [None] * len(chunk)
        for (ctx, ref_words), utt_tables in zip(chunk, tables):
            max_len = evaluation_max_len(ref_words, max_len_factor)
            for k, cfg in enumerate(cfgs):
                yield fused_greedy_decode(llm_provider, asr_provider, cfg, ctx, max_len=max_len,
                                          block=block,
                                          table=utt_tables[k] if utt_tables else None)


def sweep_wers(llm_provider, asr_provider, cfgs, eval_set,
               max_len_factor: float = 2.0) -> list[float]:
    """Corpus WER of `eval_set` decoded at each of `cfgs`, in order.

    The decodes come from `decode_eval_set`. A WER reads only S + I + D,
    so each distinct hypothesis of an utterance gets its edit distance
    (`metrics.distance_to`), with no alignment.
    """
    vocab = (llm_provider or asr_provider).vocab
    eval_set = list(eval_set)
    results = decode_eval_set(llm_provider, asr_provider, cfgs, eval_set, max_len_factor)
    edits = [0] * len(cfgs)
    n_words = 0
    for _ctx, ref_words in eval_set:
        distance = metrics.distance_to(ref_words)
        n_words += len(ref_words)
        seen = {}
        for k in range(len(cfgs)):
            hyp = vocab.decode(next(results).tokens)
            if hyp not in seen:
                seen[hyp] = distance(hyp.split())
            edits[k] += seen[hyp]
    if n_words == 0:
        raise InvalidInputError("no reference words to score")
    return [e / n_words for e in edits]
