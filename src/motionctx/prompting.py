"""Motion similarity space, anchor sampling, and prompt retrieval.

Similarity between two unified sequences is the negated mean of per-frame,
per-joint Euclidean distances: always <= 0, zero only for identical values,
and its negation is a metric. Anchor sets are built three ways: max-min
similarity sampling (seeded by the canonical rest pose, then repeatedly
taking the corpus member least similar to everything already chosen), uniform
random sampling, and k-means clustering with nearest-member centroids.
One triangle-inequality bound over a few pivot distances (`_pivot_bound`)
serves the sampler and the retriever. Max-min sampling skips members whose
bound shows the newest anchor cannot raise their best similarity, which
leaves the selection bitwise that of scoring every member. All three
samplers check a request the same way: an anchor count and a hidden width
of at least 1, and one input shape across the corpus. Each anchor carries
its task target and the initial value of its low-rank soft factor pair.
Retrieval is one scorer (`_contenders`) that every caller reads:
`retrieve_prompts` (the most similar anchor per query, optionally among one
task domain's), `retrieve_prompt`, `retrieve_with_margin` (and the runner-up
margin) and `coverage`. A stack that fits in one kernel block is scored
whole; a larger one only where the bound over the set's first anchors cannot
rule an anchor out of the best one, or two for a margin, so picks,
similarities and margins are bitwise those of scoring every anchor. All ties
break toward the lowest index so every path is deterministic.
"""

from __future__ import annotations

import hashlib
import reprlib
from dataclasses import dataclass, field

import numpy as np

from . import nd
from .errors import DimensionError, DomainError, NumericError, StateError
from .motion import MotionSequence, _as_rng, canonical_tbody, is_count
from .nd import NdBuffer
from .network import DEFAULT_HIDDEN

DEFAULT_ANCHOR_COUNT = 800
TIE_BREAK = "lowest-index"  # the only policy: ties go to the lowest index
TBODY_DOMAIN = "tbody"
KMEANS_ITERATIONS = 50
SOFT_INIT_SCALE = 0.02
_SIM_BLOCK_BYTES = 512 * 1024  # bytes of (query, anchor) pairs per _sims_to_many block
# sps_sample keeps distances to the rest pose and its first PIVOTS picks,
# and retrieval bounds a large set by its first PIVOTS + 1 anchors: the same
# pivots for an sps set.
PIVOTS = 16
# Relative margin of the pivot bound (`_pivot_bound`), which sampling and
# retrieval share. The kernel's distance d is within about 30 ulp (4e-15
# relative) of the true metric: subtraction, squares, sqrt and a pairwise
# mean each round relatively. By the triangle inequality the computed
# d(x, p) is then at least |d(x, v) - d(p, v)| less about
# 1e-14 * (d(x, v) + d(p, v)), rounding of the bound included, so
# subtracting SLACK times that sum keeps the bound at or below d(x, p) with
# a margin of 1e5. The error is relative while mean distances exceed about
# 1e-150; below that, squared per-joint distances underflow.
SLACK = 1e-9

CorpusEntry = tuple[MotionSequence, MotionSequence, str]


def similarity(x: MotionSequence, y: MotionSequence) -> float:
    """Negated mean per-frame, per-joint Euclidean distance between x and y."""
    if x.values.shape != y.values.shape:
        raise DimensionError(f"similarity needs matching shapes, got {x.values.shape} and {y.values.shape}")
    dists = np.sqrt(((x.values.array - y.values.array) ** 2).sum(axis=-1))
    # 0.0 - m keeps identical pairs at +0.0 rather than -0.0
    return float(0.0 - dists.mean())


def _sims_to_many(stacked: np.ndarray, queries: np.ndarray, rows=None) -> np.ndarray:
    # (A, F, J, 3) against (Q, F, J, 3) -> (Q, A) similarities, each row
    # bitwise equal to 0.0 - sqrt(((stacked - q) ** 2).sum(-1)).mean((1, 2)).
    # Given `rows`, in-range indices into `stacked`, it scores stacked[rows]
    # instead: one query per block, whose rows are gathered into the scratch
    # buffer and the query subtracted there, so no copy of the whole
    # selection is made.
    # The coordinate sum adds strided views in the order sum(axis=-1) does,
    # without numpy's slow length-3 reduction, and the mean is the add.reduce
    # and division ndarray.mean makes, without its Python wrapper. A block
    # holds at most _SIM_BLOCK_BYTES of (query, anchor) pairs, so temporaries
    # stay O(block), not O(Q * A): a run of anchors for one query when a
    # query against every anchor does not fit, else several queries against
    # all anchors. Either way a block's pairs are consecutive in (Q, A) order.
    n_q, n_a = queries.shape[0], stacked.shape[0] if rows is None else len(rows)
    one = queries.shape[1:]
    count = one[0] * one[1]
    dtype = np.result_type(stacked, queries)
    pairs = max(1, _SIM_BLOCK_BYTES // max(1, count * one[2] * dtype.itemsize))
    a_rows = max(1, min(n_a, pairs))
    q_rows = 1 if rows is not None else max(1, min(n_q, pairs // a_rows))
    sq = np.empty((q_rows * a_rows,) + one, dtype=dtype)
    dist = np.empty(sq.shape[:-1], dtype=dtype)
    sims = np.empty((n_q, n_a), dtype=dtype)
    flat = sims.reshape(-1)
    for q0 in range(0, n_q, q_rows):
        qs = queries[q0:q0 + q_rows, None]
        for a0 in range(0, n_a, a_rows):
            if rows is None:
                block = stacked[a0:a0 + a_rows]
                n = len(qs) * len(block)
                s, d = sq[:n], dist[:n]
                np.subtract(block, qs, out=s.reshape((len(qs),) + block.shape))
            else:
                take = rows[a0:a0 + a_rows]
                n = len(take)
                s, d = sq[:n], dist[:n]
                np.take(stacked, take, axis=0, out=s, mode="clip")
                np.subtract(s, qs[0], out=s)
            np.multiply(s, s, out=s)
            np.add(s[..., 0], s[..., 1], out=d)
            d += s[..., 2]
            np.sqrt(d, out=d)
            start = q0 * n_a + a0
            flat[start:start + n] = 0.0 - np.add.reduce(d, axis=(1, 2)) / count
    return sims


def _sims_to_one(stacked: np.ndarray, one: np.ndarray) -> np.ndarray:
    # (n, F, J, 3) against one (F, J, 3) query -> (n,): the Q = 1 case.
    return _sims_to_many(stacked, one[None])[0]


def _pivot_bound(d: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Lower bound on each member's distance to a point, from the members'
    pivot distances d (..., P, n) and the point's t (..., P, 1): the triangle
    inequality |d - t| less the SLACK margin, maxed over the pivots. NaN
    bounds (from overflowed distances) compare false, so callers score them."""
    return (np.abs(d - t) - SLACK * (d + t)).max(axis=-2)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Anchor:
    """One hard anchor: a stored input/target pair from the corpus."""

    input: MotionSequence
    target: MotionSequence
    domain: str
    source_index: int  # -1 for the rest-pose anchor


@dataclass(frozen=True)
class AnchorSet:
    """Ordered anchors plus per-anchor soft factors and sampling metadata.

    soft_w1 (A, F, J, 1) and soft_w2 (A, 1, 1, H) are the initial values that
    `init_params` copies into the trained parameters `soft_keys(index)`.
    """

    anchors: tuple[Anchor, ...]
    k_requested: int
    soft_w1: np.ndarray
    soft_w2: np.ndarray
    fingerprint: str
    method: str
    selection_trace: tuple[float, ...] = field(default=())
    tie_break = property(lambda self: TIE_BREAK)  # read-only, not a field: the one policy

    def __post_init__(self):
        if not self.anchors:
            raise StateError("anchor set must contain at least the rest-pose anchor")
        first = self.anchors[0]
        if first.source_index != -1 or np.any(first.input.values.array != 0.0):
            raise StateError("anchors[0] must be the all-zero rest-pose anchor")
        shape = self.anchors[0].input.values.shape
        for a in self.anchors:
            if a.input.values.shape != shape:
                raise DimensionError(f"anchor shapes disagree: {shape} vs {a.input.values.shape}")
        w1 = np.asarray(self.soft_w1, dtype=np.float64)
        w2 = np.asarray(self.soft_w2, dtype=np.float64)
        n = len(self.anchors)
        if w1.shape[:1] != (n,) or w1.shape[1:] != shape[:2] + (1,):
            raise DimensionError(f"soft_w1 shape {w1.shape} does not match {n} anchors of {shape}")
        if w2.shape[:3] != (n, 1, 1):
            raise DimensionError(f"soft_w2 shape {w2.shape} must be (A, 1, 1, H)")
        if not (np.all(np.isfinite(w1)) and np.all(np.isfinite(w2))):
            raise NumericError("soft factors must be finite")
        w1.setflags(write=False)
        w2.setflags(write=False)
        object.__setattr__(self, "soft_w1", w1)
        object.__setattr__(self, "soft_w2", w2)

    def __len__(self) -> int:
        return len(self.anchors)

    @property
    def frames(self) -> int:
        return self.anchors[0].input.values.shape[0]

    @property
    def joints(self) -> int:
        return self.anchors[0].input.values.shape[1]

    @property
    def hidden(self) -> int:
        return self.soft_w2.shape[-1]

    def _cached(self, key: str, build):
        """The value kept under `key`, made by `build()` on first use."""
        value = self.__dict__.get(key)
        if value is None:
            value = build()
            object.__setattr__(self, key, value)
        return value

    def stacked_inputs(self) -> np.ndarray:
        """Read-only (A, F, J, 3) stack of the anchor inputs, built on first use."""
        return self._cached("_stacked", lambda: _read_only(
            np.stack([a.input.values.array for a in self.anchors])))

    def _keep_stack(self, stacked: np.ndarray) -> None:
        """Take `stacked`, a read-only block bitwise equal to np.stack of the
        anchor inputs (a loader's own block), as the stack instead of a copy."""
        object.__setattr__(self, "_stacked", stacked)

    def pivot_distances(self) -> np.ndarray:
        """Read-only (P, A) distances of every anchor to each of the first
        P = min(PIVOTS + 1, A) anchors, built on first use."""
        def build():
            stacked = self.stacked_inputs()
            return _read_only(-_sims_to_many(stacked, stacked[:PIVOTS + 1]))
        return self._cached("_pivot_distances", build)

    def domain_indices(self, domain: str) -> np.ndarray:
        """Ascending indices of the anchors of one task domain."""
        def build():
            domains = np.array([a.domain for a in self.anchors])
            return {d: np.flatnonzero(domains == d) for d in set(domains.tolist())}
        return self._cached("_by_domain", build).get(domain, np.empty(0, dtype=np.intp))


def corpus_fingerprint(corpus: list[CorpusEntry]) -> str:
    h = hashlib.sha256()
    for inp, tgt, domain in corpus:
        h.update(domain.encode())
        h.update(np.asarray(inp.values.shape, dtype=np.int64).tobytes())
        h.update(inp.values.array.tobytes())
        h.update(tgt.values.array.tobytes())
        h.update(tgt.betas.tobytes())
    return h.hexdigest()


def _check_request(corpus: list[CorpusEntry], k: int, hidden_dim: int, *,
                   draws: bool = False) -> Anchor:
    """Reject a bad sampling request and return the rest-pose anchor for the
    corpus shape. `draws` marks a sampler that draws k distinct members, so
    k may not exceed the corpus size."""
    if not is_count(k):
        raise DomainError(f"anchor count must be >= 1, got {k}")
    if draws and k > len(corpus):
        raise DomainError(f"anchor count {k} exceeds corpus size {len(corpus)}")
    if not is_count(hidden_dim):
        raise DomainError(f"hidden width must be >= 1, got {hidden_dim}")
    if not corpus:
        raise StateError("anchor sampling needs a non-empty corpus")
    shape = corpus[0][0].values.shape
    for inp, _, _ in corpus:
        if inp.values.shape != shape:
            raise DimensionError(f"corpus inputs disagree on shape: {shape} vs {inp.values.shape}")
    tbody = canonical_tbody(shape[0], shape[1])
    return Anchor(tbody, tbody, TBODY_DOMAIN, -1)


def _build_set(corpus, rest, picked, method, k_requested, hidden, trace=()):
    anchors = (rest,) + tuple(Anchor(*corpus[i], int(i)) for i in picked)
    fp = corpus_fingerprint(corpus)
    # Zero factors would freeze soft anchors (product parameterization), so
    # seed small values deterministically from the sampling identity.
    digest = hashlib.sha256(f"{fp}:{method}:{len(anchors)}:{hidden}".encode()).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    w1 = rng.normal(scale=SOFT_INIT_SCALE, size=(len(anchors),) + rest.input.values.shape[:2] + (1,))
    w2 = rng.normal(scale=SOFT_INIT_SCALE, size=(len(anchors), 1, 1, hidden))
    return AnchorSet(anchors=anchors, k_requested=int(k_requested), soft_w1=w1, soft_w2=w2,
                     fingerprint=fp, method=method,
                     selection_trace=tuple(float(t) for t in trace))


def sps_sample(corpus: list[CorpusEntry], k: int, hidden_dim: int = DEFAULT_HIDDEN) -> AnchorSet:
    """Max-min similarity sampling.

    Starts from the rest pose, then repeatedly adds the unsampled member whose
    best similarity to the current anchors is smallest, keeping similarities
    incrementally against only the newest anchor. Stops when k anchors exist
    (the rest pose counts) or the corpus is exhausted. Deterministic; ties go
    to the lowest corpus index.

    The rest pose and the first PIVOTS picks are pivots: each scores every
    member and keeps its distances. A later pick scores only the members
    whose pivot bound (see SLACK) is below their distance to the anchors;
    the others could not gain, so the result is bitwise that of scoring all.
    """
    rest = _check_request(corpus, k, hidden_dim)

    # Only members not yet taken are scored. Their rows, corpus indices,
    # MaxSim values and pivot distances live compacted at the front of
    # `rows`, `alive`, `best` and each pivot's row of `piv`; a pick's slot
    # takes the last alive member, so the order is not the corpus order and
    # ties go to the smallest `alive` among exact minima.
    rows = np.stack([c[0].values.array for c in corpus])
    alive = np.arange(len(corpus))
    best = _sims_to_one(rows, rest.input.values.array)  # MaxSim against {T-body}
    piv = np.empty((PIVOTS + 1, len(corpus)))  # distances to the rest pose and the first picks
    piv[0] = -best
    pivots = 1
    picked: list[int] = []
    trace: list[float] = []
    n = len(corpus)
    while len(picked) + 1 < k and n:
        ties = np.flatnonzero(best[:n] == best[:n].min())
        pos = int(ties[np.argmin(alive[ties])])
        idx = int(alive[pos])
        picked.append(idx)
        trace.append(float(best[pos]))
        newest, to_pivots = rows[pos].copy(), piv[:pivots, pos, None].copy()
        n -= 1
        rows[pos], alive[pos], best[pos], piv[:, pos] = rows[n], alive[n], best[n], piv[:, n]
        if not n:
            break
        if pivots <= PIVOTS:  # the newest pick becomes a pivot: score every member
            sims = _sims_to_one(rows[:n], newest)
            piv[pivots, :n] = -sims
            pivots += 1
            np.maximum(best[:n], sims, out=best[:n])
            continue
        # lb <= -similarity(x, newest); skipped members keep their best
        # bitwise, as np.maximum would.
        score = np.flatnonzero(~(_pivot_bound(piv[:, :n], to_pivots) >= -best[:n]))
        if score.size:
            best[score] = np.maximum(best[score], _sims_to_one(rows[score], newest))
    return _build_set(corpus, rest, picked, "sps", k, hidden_dim, trace)


def random_sample(corpus: list[CorpusEntry], k: int, rng_seed: int,
                  hidden_dim: int = DEFAULT_HIDDEN) -> AnchorSet:
    """k corpus members uniformly without replacement, rest pose prepended."""
    rest = _check_request(corpus, k, hidden_dim, draws=True)
    rng = _as_rng(rng_seed)
    picked = [int(i) for i in rng.choice(len(corpus), size=k, replace=False)]
    return _build_set(corpus, rest, picked, "random", k, hidden_dim)


def _nearest_centroid(flat: np.ndarray, centroids: np.ndarray,
                      row_norms: np.ndarray | None = None) -> np.ndarray:
    """Index of the nearest centroid for each row, lowest index on ties: the
    argmin of the (n, k, D) difference tensor's squared distances.

    Expands ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2: one (n, k) GEMM instead
    of the difference tensor. ||x||^2 is the same for every centroid of a
    row, so it is left out of the comparison. The GEMM sums in the BLAS
    kernel's order, so a row whose two best expanded scores lie within
    8 (D + 2) eps (||x||^2 + max_c ||c||^2) of each other is re-scored by the
    difference tensor. An expanded score (a D-term dot product and norm, then
    a subtraction; 2|x.c| <= ||x||^2 + ||c||^2) is off its exact value by at
    most 2 (D + 1) eps (||x||^2 + ||c||^2), a difference-tensor distance by at
    most 2 (D + 3) eps (||x||^2 + ||c||^2); beyond twice their sum both forms
    pick the same centroid, whatever the kernel. `row_norms`, the rows'
    ||x||^2, may be passed in when `flat` is reused.
    """
    norms = (centroids * centroids).sum(axis=1)
    scores = norms - 2.0 * (flat @ centroids.T)
    nearest = scores.argmin(axis=1)
    if centroids.shape[0] > 1:
        if row_norms is None:
            row_norms = np.einsum("ij,ij->i", flat, flat)
        bound = 8.0 * (flat.shape[1] + 2) * np.finfo(np.float64).eps * (row_norms + norms.max())
        best, second = np.partition(scores, 1, axis=1)[:, :2].T
        near = np.flatnonzero(second - best <= bound)
        if near.size:
            diff = flat[near, None, :] - centroids[None, :, :]
            nearest[near] = (diff * diff).sum(axis=2).argmin(axis=1)
    return nearest


def cluster_sample(corpus: list[CorpusEntry], k: int, rng_seed: int,
                   hidden_dim: int = DEFAULT_HIDDEN) -> AnchorSet:
    """k-means in flattened value space; anchors are the members nearest each
    centroid. At most `KMEANS_ITERATIONS` iterations, seeded member
    initialization, empty clusters keep their previous centroid; fully
    deterministic per seed. The loop stops once an assignment repeats the
    previous one: the update would rebuild the same centroids bitwise, so
    every later iteration would repeat it."""
    rest = _check_request(corpus, k, hidden_dim, draws=True)
    flat = np.stack([c[0].values.array.reshape(-1) for c in corpus])
    rng = _as_rng(rng_seed)
    centroids = flat[rng.choice(len(corpus), size=k, replace=False)].copy()
    assign, row_norms = None, np.einsum("ij,ij->i", flat, flat)
    for _ in range(KMEANS_ITERATIONS):
        previous, assign = assign, _nearest_centroid(flat, centroids, row_norms)
        if previous is not None and np.array_equal(assign, previous):
            break
        for c in range(k):
            members = flat[assign == c]
            if members.size:
                centroids[c] = members.mean(axis=0)
    picked: list[int] = []
    used = np.zeros(len(corpus), dtype=bool)
    for c in range(k):
        order = np.argsort(((flat - centroids[c]) ** 2).sum(axis=1), kind="stable")
        idx = next(int(i) for i in order if not used[i])
        picked.append(idx)
        used[idx] = True
    return _build_set(corpus, rest, picked, "cluster", k, hidden_dim)


def _query_block(queries: list[MotionSequence], anchors: AnchorSet) -> np.ndarray:
    """The (Q, F, J, 3) block of the query inputs, checked against the anchors."""
    if not isinstance(anchors, AnchorSet):
        raise DomainError(f"retrieval needs an AnchorSet, got {reprlib.repr(anchors)}")
    if not isinstance(queries, (list, tuple)):
        raise DimensionError(f"queries must be a list of sequences, got {reprlib.repr(queries)}")
    if not queries:
        raise StateError("similarity scoring needs at least one query")
    shape = anchors.anchors[0].input.values.shape
    for x in queries:
        if not isinstance(x, MotionSequence):
            raise DimensionError(f"a query must be a MotionSequence, got {reprlib.repr(x)}")
        if x.values.shape != shape:
            raise DimensionError(f"query shape {x.values.shape} does not match anchor shape {shape}")
    # np.array, not np.stack: stack costs several times more for one query.
    return np.array([x.values.array for x in queries])


@dataclass(frozen=True)
class RetrievedPrompt:
    hard_input: MotionSequence
    hard_target: MotionSequence
    index: int  # its soft factors are the parameters `network.soft_keys(index)`
    similarity: float


def _candidates(anchors: AnchorSet, domain_filter: str | None) -> np.ndarray | None:
    """Ascending indices of one task domain's anchors; None (nothing to index) for all."""
    if domain_filter is None:
        return None
    if not isinstance(domain_filter, str):
        raise DomainError(f"domain filter {reprlib.repr(domain_filter)} is not a task id or None")
    candidates = anchors.domain_indices(domain_filter)
    if not candidates.size:
        raise StateError(f"no anchors of domain {domain_filter!r} in the set")
    return candidates


def _contenders(queries: list[MotionSequence], anchors: AnchorSet, domain_filter: str | None,
                keep: int = 1) -> list[tuple[np.ndarray | None, np.ndarray]]:
    """Per query, ascending candidate indices (None: every anchor, in order)
    and their similarities, holding every candidate that could be among the
    query's `keep` (1 or 2) best, so the first maximum and the two largest
    values are bitwise the full scan's.

    A stack within one kernel block is scored whole. A larger one is scored
    against its pivots (the first P anchors), and every other candidate is
    bounded from `pivot_distances`: one whose bound exceeds the `keep`-th
    nearest candidate pivot's distance is computed farther than `keep`
    candidates, so it neither ranks among them nor ties. With fewer than
    `keep` candidate pivots every candidate is scored. The pruned path costs
    a second kernel call and the bound: on a 2-core x86 host one query took
    about twice as long pruned against 64 toy anchors (74 KB), 0.6 times as
    long against 800 paper anchors (7.4 MB); the two crossed between about
    220 and 740 KB of stack."""
    block = _query_block(queries, anchors)
    candidates = _candidates(anchors, domain_filter)
    stacked = anchors.stacked_inputs()
    if stacked.nbytes <= _SIM_BLOCK_BYTES:
        sims = _sims_to_many(stacked, block)
        # Unfiltered rows are taken as they are: indexing every column copies.
        return [(candidates, row) for row in (sims if candidates is None else sims[:, candidates])]
    found = np.arange(len(stacked)) if candidates is None else candidates
    table = anchors.pivot_distances()
    p = len(table)
    own, rest = found[found < p], found[found >= p]
    to_pivots = _sims_to_many(stacked[:p], block)  # (Q, P) similarities
    d = table[:, rest]
    kept = []
    for q, row in enumerate(to_pivots):
        near = np.sort(np.append(-row[own], [np.inf] * keep))[keep - 1]  # inf if < keep pivots
        score = rest[~(_pivot_bound(d, -row[:, None]) > near)]
        kept.append((np.concatenate([own, score]),
                     np.concatenate([row[own], _sims_to_many(stacked, block[q:q + 1], score)[0]])))
    return kept


def _first_best(anchors: AnchorSet, found: np.ndarray | None, sims: np.ndarray) -> RetrievedPrompt:
    best = int(sims.argmax())  # the first maximum: found ascends, so the lowest index
    i = best if found is None else int(found[best])
    return RetrievedPrompt(anchors.anchors[i].input, anchors.anchors[i].target, i, float(sims[best]))


def retrieve_prompts(queries: list[MotionSequence], anchors: AnchorSet,
                     domain_filter: str | None = None) -> list[RetrievedPrompt]:
    """Most-similar anchor to each query input (lowest index on ties), all
    queries scored in one pass; domain_filter keeps one task domain's anchors
    (original indices kept), None lets all compete."""
    return [_first_best(anchors, *kept) for kept in _contenders(queries, anchors, domain_filter)]


def retrieve_prompt(query_input: MotionSequence, anchors: AnchorSet,
                    domain_filter: str | None = None) -> RetrievedPrompt:
    """`retrieve_prompts` for one query."""
    return retrieve_prompts([query_input], anchors, domain_filter)[0]


def retrieve_with_margin(query_input: MotionSequence, anchors: AnchorSet,
                         domain_filter: str | None = None) -> tuple[RetrievedPrompt, float]:
    """`retrieve_prompt` and its runner-up margin, from one pass that keeps
    the best two: the pick's similarity less the second largest candidate
    similarity (0 on a tie), inf when one anchor is a candidate."""
    (found, sims), = _contenders([query_input], anchors, domain_filter, keep=2)
    top = np.sort(sims)[::-1]
    return _first_best(anchors, found, sims), (top[0] - top[1] if top.size > 1 else float("inf"))


def soft_anchor_value(w1, w2) -> NdBuffer:
    """Soft anchor U = W1 * W2 as an (F, J, H) buffer; float64 arrays are constants."""
    return nd.mul(w1, w2)


def coverage(queries: list[MotionSequence], anchors: AnchorSet) -> float:
    """Worst-case retrieval similarity: min over queries of max over anchors."""
    return float(np.min([p.similarity for p in retrieve_prompts(queries, anchors)]))
