"""Motion similarity space, anchor sampling, and prompt retrieval.

Similarity between two unified sequences is the negated mean of per-frame,
per-joint Euclidean distances: always <= 0, zero only for identical values,
and its negation is a metric. Anchor sets are built three ways: max-min
similarity sampling (seeded by the canonical rest pose, then repeatedly
taking the corpus member least similar to everything already chosen), uniform
random sampling, and k-means clustering with nearest-member centroids. Each
anchor carries its task target and the initial value of its low-rank soft
factor pair. Retrieval returns the anchor most similar to a query input; all
ties break toward the lowest index so every path is deterministic.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import nd
from .errors import DimensionError, DomainError, NumericError, StateError
from .motion import MotionSequence, canonical_tbody
from .nd import NdBuffer
from .network import DEFAULT_HIDDEN

DEFAULT_ANCHOR_COUNT = 800
TIE_BREAK = "lowest-index"  # the only policy: ties go to the lowest index
TBODY_DOMAIN = "tbody"
KMEANS_ITERATIONS = 50
SOFT_INIT_SCALE = 0.02
_SIM_BLOCK_BYTES = 512 * 1024  # bytes of (query, anchor) pairs per _sims_to_many block

CorpusEntry = tuple[MotionSequence, MotionSequence, str]


def similarity(x: MotionSequence, y: MotionSequence) -> float:
    """Negated mean per-frame, per-joint Euclidean distance between x and y."""
    if x.values.shape != y.values.shape:
        raise DimensionError(f"similarity needs matching shapes, got {x.values.shape} and {y.values.shape}")
    dists = np.sqrt(((x.values.array - y.values.array) ** 2).sum(axis=-1))
    # 0.0 - m keeps identical pairs at +0.0 rather than -0.0
    return float(0.0 - dists.mean())


def _sims_to_many(stacked: np.ndarray, queries: np.ndarray) -> np.ndarray:
    # (A, F, J, 3) against (Q, F, J, 3) -> (Q, A) similarities, each row
    # bitwise equal to 0.0 - sqrt(((stacked - q) ** 2).sum(-1)).mean((1, 2)).
    # The coordinate sum adds strided views in the order sum(axis=-1) does,
    # without numpy's slow length-3 reduction, and the mean is the add.reduce
    # and division ndarray.mean makes, without its Python wrapper. A block
    # holds at most _SIM_BLOCK_BYTES of (query, anchor) pairs, so temporaries
    # stay O(block), not O(Q * A): a run of anchors for one query when a
    # query against every anchor does not fit, else several queries against
    # all anchors. Either way a block's pairs are consecutive in (Q, A) order.
    n_q, n_a = queries.shape[0], stacked.shape[0]
    one = queries.shape[1:]
    count = one[0] * one[1]
    dtype = np.result_type(stacked, queries)
    pairs = max(1, _SIM_BLOCK_BYTES // max(1, count * one[2] * dtype.itemsize))
    a_rows = max(1, min(n_a, pairs))
    q_rows = max(1, min(n_q, pairs // a_rows))
    sq = np.empty((q_rows * a_rows,) + one, dtype=dtype)
    dist = np.empty(sq.shape[:-1], dtype=dtype)
    sims = np.empty((n_q, n_a), dtype=dtype)
    flat = sims.reshape(-1)
    for q0 in range(0, n_q, q_rows):
        qs = queries[q0:q0 + q_rows, None]
        for a0 in range(0, n_a, a_rows):
            block = stacked[a0:a0 + a_rows]
            n = len(qs) * len(block)
            s, d = sq[:n], dist[:n]
            np.subtract(block, qs, out=s.reshape((len(qs),) + block.shape))
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
    `init_params` copies into the trained parameters soft.{index}.w1/w2.
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

    def stacked_inputs(self) -> np.ndarray:
        """Read-only (A, F, J, 3) stack of the anchor inputs, built on first use."""
        stacked = self.__dict__.get("_stacked")
        if stacked is None:
            stacked = np.stack([a.input.values.array for a in self.anchors])
            stacked.setflags(write=False)
            object.__setattr__(self, "_stacked", stacked)
        return stacked

    def domain_indices(self, domain: str) -> np.ndarray:
        """Ascending indices of the anchors of one task domain."""
        by_domain = self.__dict__.get("_by_domain")
        if by_domain is None:
            domains = np.array([a.domain for a in self.anchors])
            by_domain = {d: np.flatnonzero(domains == d) for d in set(domains.tolist())}
            object.__setattr__(self, "_by_domain", by_domain)
        return by_domain.get(domain, np.empty(0, dtype=np.intp))


def corpus_fingerprint(corpus: list[CorpusEntry]) -> str:
    h = hashlib.sha256()
    for inp, tgt, domain in corpus:
        h.update(domain.encode())
        h.update(np.asarray(inp.values.shape, dtype=np.int64).tobytes())
        h.update(inp.values.array.tobytes())
        h.update(tgt.values.array.tobytes())
        h.update(tgt.betas.tobytes())
    return h.hexdigest()


def _check_corpus(corpus: list[CorpusEntry]) -> tuple[int, int]:
    if not corpus:
        raise StateError("anchor sampling needs a non-empty corpus")
    shape = corpus[0][0].values.shape
    for inp, _, _ in corpus:
        if inp.values.shape != shape:
            raise DimensionError(f"corpus inputs disagree on shape: {shape} vs {inp.values.shape}")
    return shape[0], shape[1]


def _soft_init(count: int, frames: int, joints: int, hidden: int,
               fingerprint: str, method: str) -> tuple[np.ndarray, np.ndarray]:
    # Zero factors would freeze soft anchors (product parameterization), so
    # seed small values deterministically from the sampling identity.
    digest = hashlib.sha256(f"{fingerprint}:{method}:{count}:{hidden}".encode()).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    w1 = rng.normal(scale=SOFT_INIT_SCALE, size=(count, frames, joints, 1))
    w2 = rng.normal(scale=SOFT_INIT_SCALE, size=(count, 1, 1, hidden))
    return w1, w2


def _build_set(corpus, picked, method, k_requested, hidden, trace=()):
    frames, joints = _check_corpus(corpus)
    tbody = canonical_tbody(frames, joints)
    anchors = [Anchor(tbody, tbody, TBODY_DOMAIN, -1)]
    for i in picked:
        inp, tgt, domain = corpus[i]
        anchors.append(Anchor(inp, tgt, domain, int(i)))
    fp = corpus_fingerprint(corpus)
    w1, w2 = _soft_init(len(anchors), frames, joints, hidden, fp, method)
    return AnchorSet(anchors=tuple(anchors), k_requested=k_requested, soft_w1=w1, soft_w2=w2,
                     fingerprint=fp, method=method,
                     selection_trace=tuple(float(t) for t in trace))


def sps_sample(corpus: list[CorpusEntry], k: int, hidden_dim: int = DEFAULT_HIDDEN) -> AnchorSet:
    """Max-min similarity sampling.

    Starts from the rest pose, then repeatedly adds the unsampled member whose
    best similarity to the current anchors is smallest, keeping similarities
    incrementally against only the newest anchor. Stops when k anchors exist
    (the rest pose counts) or the corpus is exhausted. Deterministic; ties go
    to the lowest corpus index.
    """
    if k < 1:
        raise DomainError(f"anchor count must be >= 1, got {k}")
    frames, joints = _check_corpus(corpus)
    tbody = canonical_tbody(frames, joints)

    # Only members not yet taken are scored. Their rows, corpus indices and
    # MaxSim values live compacted at the front of `rows`, `alive` and `best`;
    # a pick's slot takes the last alive member, so the order is not the
    # corpus order and ties go to the smallest `alive` among exact minima.
    rows = np.stack([c[0].values.array for c in corpus])
    alive = np.arange(len(corpus))
    best = _sims_to_one(rows, tbody.values.array)  # MaxSim against {T-body}
    picked: list[int] = []
    trace: list[float] = []
    n = len(corpus)
    while len(picked) + 1 < k and n:
        ties = np.flatnonzero(best[:n] == best[:n].min())
        pos = int(ties[np.argmin(alive[ties])])
        idx = int(alive[pos])
        picked.append(idx)
        trace.append(float(best[pos]))
        newest = rows[pos].copy()
        n -= 1
        rows[pos], alive[pos], best[pos] = rows[n], alive[n], best[n]
        if n:
            best[:n] = np.maximum(best[:n], _sims_to_one(rows[:n], newest))
    return _build_set(corpus, picked, "sps", k, hidden_dim, trace)


def random_sample(corpus: list[CorpusEntry], k: int, rng_seed: int,
                  hidden_dim: int = DEFAULT_HIDDEN) -> AnchorSet:
    """k corpus members uniformly without replacement, rest pose prepended."""
    if k < 1:
        raise DomainError(f"anchor count must be >= 1, got {k}")
    if k > len(corpus):
        raise DomainError(f"anchor count {k} exceeds corpus size {len(corpus)}")
    rng = np.random.default_rng(rng_seed)
    picked = [int(i) for i in rng.choice(len(corpus), size=k, replace=False)]
    return _build_set(corpus, picked, "random", k, hidden_dim)


def _nearest_centroid(flat: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of the nearest centroid for each row, lowest index on ties.

    Expands ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2: one (n, k) GEMM instead
    of an (n, k, D) difference tensor. ||x||^2 is the same for every centroid
    of a row, so it is left out of the comparison, which keeps its rounding
    out of near ties.
    """
    return ((centroids * centroids).sum(axis=1) - 2.0 * (flat @ centroids.T)).argmin(axis=1)


def cluster_sample(corpus: list[CorpusEntry], k: int, rng_seed: int,
                   hidden_dim: int = DEFAULT_HIDDEN) -> AnchorSet:
    """k-means in flattened value space; anchors are the members nearest each
    centroid. Fixed iteration count, seeded member initialization, empty
    clusters keep their previous centroid; fully deterministic per seed."""
    if k < 1:
        raise DomainError(f"anchor count must be >= 1, got {k}")
    if k > len(corpus):
        raise DomainError(f"anchor count {k} exceeds corpus size {len(corpus)}")
    _check_corpus(corpus)
    flat = np.stack([c[0].values.array.reshape(-1) for c in corpus])
    rng = np.random.default_rng(rng_seed)
    centroids = flat[rng.choice(len(corpus), size=k, replace=False)].copy()
    for _ in range(KMEANS_ITERATIONS):
        assign = _nearest_centroid(flat, centroids)
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
    return _build_set(corpus, picked, "cluster", k, hidden_dim)


def _query_array(x: MotionSequence, anchors: AnchorSet) -> np.ndarray:
    shape = anchors.anchors[0].input.values.shape
    if x.values.shape != shape:
        raise DimensionError(f"query shape {x.values.shape} does not match anchor shape {shape}")
    return x.values.array


def anchor_similarities(x: MotionSequence, anchors: AnchorSet) -> np.ndarray:
    """(A,) similarities of x to every anchor input, in one vectorized pass."""
    return _sims_to_one(anchors.stacked_inputs(), _query_array(x, anchors))


def query_similarities(queries: list[MotionSequence], anchors: AnchorSet) -> np.ndarray:
    """(Q, A) similarities of each query to every anchor input, in one blocked pass."""
    return _sims_to_many(anchors.stacked_inputs(),
                         np.stack([_query_array(x, anchors) for x in queries]))


def max_sim(x: MotionSequence, anchors: AnchorSet) -> tuple[float, int]:
    """Best similarity of x over the anchor list and the first index attaining it."""
    sims = anchor_similarities(x, anchors)
    idx = int(np.argmax(sims))
    return float(sims[idx]), idx


@dataclass(frozen=True)
class RetrievedPrompt:
    hard_input: MotionSequence
    hard_target: MotionSequence
    index: int  # its soft factors are the parameters soft.{index}.w1 and .w2
    similarity: float


def pick_anchors(sims: np.ndarray, anchors: AnchorSet, domain_filter: str | None) -> np.ndarray:
    """Index of the most similar anchor along the last axis of (A,) or (Q, A)
    similarities, lowest on ties. domain_filter restricts candidates to
    anchors of one task domain while keeping original indices; None lets
    all anchors compete."""
    if domain_filter is None:
        return np.argmax(sims, axis=-1)  # argmax returns the first maximum
    candidates = anchors.domain_indices(domain_filter)
    if not candidates.size:
        raise StateError(f"no anchors of domain {domain_filter!r} in the set")
    return candidates[np.argmax(sims[..., candidates], axis=-1)]


def _prompt(anchors: AnchorSet, best: int, sim) -> RetrievedPrompt:
    a = anchors.anchors[best]
    return RetrievedPrompt(hard_input=a.input, hard_target=a.target, index=best,
                           similarity=float(sim))


def retrieve_prompt(query_input: MotionSequence, anchors: AnchorSet,
                    domain_filter: str | None = None) -> RetrievedPrompt:
    """Most-similar anchor to the query input (lowest index on ties).

    domain_filter restricts candidates to anchors of one task domain while
    preserving original indices; by default all anchors compete.
    """
    sims = anchor_similarities(query_input, anchors)
    best = int(pick_anchors(sims, anchors, domain_filter))
    return _prompt(anchors, best, sims[best])


def retrieve_prompts(queries: list[MotionSequence], anchors: AnchorSet) -> list[RetrievedPrompt]:
    """`retrieve_prompt` over all anchors for each query, all scored in one pass."""
    sims = query_similarities(queries, anchors)
    return [_prompt(anchors, best, row[best])
            for row, best in zip(sims, pick_anchors(sims, anchors, None).tolist())]


def soft_anchor_value(w1, w2) -> NdBuffer:
    """Soft anchor U = W1 * W2 as an (F, J, H) buffer; float64 arrays are constants."""
    return nd.mul(w1, w2)


def coverage(queries: list[MotionSequence], anchors: AnchorSet) -> float:
    """Worst-case retrieval similarity: min over queries of max over anchors."""
    if not queries:
        raise StateError("coverage needs at least one query")
    return float(query_similarities(queries, anchors).max(axis=1).min())
