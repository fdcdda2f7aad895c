"""Independent straight-line oracles used to check the library implementations.

Everything here is deliberately brute force (bit loops, subset enumeration,
ancestor-set intersection) and shares no code with the package; errors are
named by their class name.
"""
from __future__ import annotations

import math
from itertools import combinations

import numpy as np


def bf_hamming(bits_a, bits_b) -> int:
    assert len(bits_a) == len(bits_b)
    return sum(1 for x, y in zip(bits_a, bits_b) if x != y)


def unpack_bits(code) -> np.ndarray:
    """The code_length bits of a packed code, bit j from bit j % 64 of word j // 64."""
    bits = [(code.words[j // 64] >> (j % 64)) & 1 for j in range(code.code_length)]
    return np.array(bits, dtype=np.uint8)


def bf_topk(db_bits, ids, query_bits, k):
    """Naive sort by (per-bit hamming distance, id)."""
    scored = sorted(
        (bf_hamming(bits, query_bits), int(i)) for bits, i in zip(db_bits, ids)
    )
    return [(i, d) for d, i in scored[:k]]


def smallest_duplicate(ids):
    """The smallest id that occurs more than once, or None."""
    seen, repeated = set(), set()
    for i in map(int, ids):
        (repeated if i in seen else seen).add(i)
    return min(repeated, default=None)


def bf_lca(parent_of, depth_of, a, b):
    """Deepest common element of the two ancestor chains."""
    def chain(x):
        out = [x]
        while parent_of[x] is not None:
            x = parent_of[x]
            out.append(x)
        return out

    common = set(chain(a)) & set(chain(b))
    return max(common, key=lambda n: depth_of[n])


def ancestor_table(t, labels) -> np.ndarray:
    """Each label's ancestor at every depth, (height + 1) x len(labels), found by
    walking up its parents; a label stands in for itself below its own depth."""
    table = np.empty((t.height + 1, len(labels)), dtype=np.int64)
    for i, node in enumerate(labels):
        for depth in range(t.height, -1, -1):
            if depth < t.depth(node):
                node = t.parent(node)
            table[depth, i] = node
    return table


def bf_parse_taxonomy(text):
    """Parse an edge-list taxonomy from its documented rules.

    Returns the name of the first error class under the documented
    precedence (line format, empty input, per-edge second parent or
    self-edge in file order, cycle, extra root), or
    ``(root name, height, leaf names, depth by name, node height by name)``.
    """
    edges = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            return "MalformedFile"
        edges.append(tuple(parts))
    if not edges:
        return "EmptyInput"

    names = []
    parent_of = {}
    for parent, child in edges:
        for name in (parent, child):
            if name not in names:
                names.append(name)
        if child in parent_of and parent_of[child] != parent:
            return "MultipleParents"
        if parent == child:
            return "CycleDetected"
        parent_of[child] = parent

    ancestors = {}
    for name in names:
        seen = set()
        x = name
        while x in parent_of:
            x = parent_of[x]
            if x in seen or x == name:
                return "CycleDetected"
            seen.add(x)
        ancestors[name] = seen
    roots = [name for name in names if name not in parent_of]
    if len(roots) != 1:
        return "MultipleRoots"
    depth = {name: len(ancestors[name]) for name in names}
    leaves = {name for name in names if name not in parent_of.values()}
    # a node's height is its longest path down to a descendant
    node_height = {
        name: max((depth[d] - depth[name] for d in names if name in ancestors[d]), default=0)
        for name in names
    }
    return roots[0], max(depth.values()), leaves, depth, node_height


def bf_generate_synthetic(t, per_class, dim, noise, rng):
    """``(features, labels)`` of ``generate_synthetic`` from a FIFO queue of nodes.

    Node means are drawn breadth-first from the root, children in id order,
    then each leaf's samples in leaf id order.  Arguments are not checked.
    """
    n = len(t.nodes)
    children = [[node.id for node in t.nodes if node.parent == i] for i in range(n)]
    leaves = [i for i in range(n) if not children[i]]
    gen = rng.generator
    means = np.zeros((n, dim))
    queue = [next(node.id for node in t.nodes if node.parent is None)]
    while queue:
        node = queue.pop(0)
        for child in children[node]:
            means[child] = means[node] + gen.standard_normal(dim)
            queue.append(child)
    features = np.concatenate(
        [means[leaf] + noise * gen.standard_normal((per_class, dim)) for leaf in leaves]
    )
    return features.astype(np.float32), np.repeat(leaves, per_class)


def serialize_taxonomy(t) -> str:
    """Edge-list text that reparses to the same tree (ids may be relabeled)."""
    lines = []
    for node in t.nodes:
        if node.parent is not None:
            lines.append(f"{t.nodes[node.parent].name} {node.name}")
    return "\n".join(lines) + "\n"


def bf_best_k_sum(values, k) -> float:
    """Max sum over all size-k subsets, by enumeration."""
    return max(math.fsum(c) for c in combinations(values, k))


def bf_hp_at_k(ranked_rels, k) -> float:
    ideal = bf_best_k_sum(ranked_rels, k)
    if ideal == 0:
        return 1.0
    return math.fsum(ranked_rels[:k]) / ideal


def bf_ahp_at_k(ranked_rels, k_max) -> float:
    return math.fsum(bf_hp_at_k(ranked_rels, k) for k in range(1, k_max + 1)) / k_max


def sorted_hp_curve(ranked_rels, k_max):
    """HP@1..k_max of one complete ranking, the ideal prefix sums taken by sorting.

    Gathered cumulative relevance over the cumulative relevance of the best
    items, as float64, or 1.0 where that ideal is 0.
    """
    rels = np.asarray(ranked_rels, dtype=np.float64)
    got = np.cumsum(rels[:k_max])
    ideal = np.cumsum(np.sort(rels)[::-1][:k_max])
    return np.where(ideal > 0, got / np.maximum(ideal, 1e-300), 1.0)


def bf_ap(ranked_binary) -> float:
    """Average precision from the definition, by prefix scan."""
    total = sum(ranked_binary)
    assert total > 0
    hits = 0
    acc = []
    for pos, rel in enumerate(ranked_binary, start=1):
        if rel:
            hits += 1
            acc.append(hits / pos)
    return math.fsum(acc) / total


def bf_evaluate(dists, item_ids, item_labels, query_ids, query_labels, rel, k_max):
    """The per-query retrieval eval: rank, score and average one query at a time.

    ``dists(qi)`` gives query qi's distance to every item, ``rel(a, b)`` the
    relevance of an item labelled b to a query labelled a.  Each query's own
    id is dropped from its candidates, which are ranked by (distance, id).
    Returns the ``MetricsReport`` fields, ``ranking`` aside, as a dict.
    """
    item_ids, item_labels = np.asarray(item_ids), np.asarray(item_labels)
    hp_rows, aps = [], []
    for qi, (qid, q_label) in enumerate(zip(query_ids, query_labels)):
        order = np.lexsort((item_ids, dists(qi)))
        order = order[item_ids[order] != qid]
        rels = np.array([rel(q_label, item_labels[i]) for i in order])
        got = np.cumsum(rels)[:k_max]
        ideal = np.cumsum(np.sort(rels)[::-1])[:k_max]
        hp_rows.append(np.where(ideal > 0, got / np.maximum(ideal, 1e-300), 1.0))
        hits = np.flatnonzero(item_labels[order] == q_label)
        terms = (np.arange(hits.size) + 1.0) / (hits + 1.0)
        aps.append(math.fsum(terms) / hits.size if hits.size else math.nan)
    n = len(hp_rows)
    hp_rows = np.array(hp_rows)
    ahps = [math.fsum(row) / k_max for row in hp_rows]
    found = [ap for ap in aps if not math.isnan(ap)]
    return {
        "map": math.fsum(found) / len(found) if found else math.nan,
        "mahp_at_k": {k_max: math.fsum(ahps) / n},
        "hp_curve": [(k + 1, math.fsum(hp_rows[:, k]) / n) for k in range(k_max)],
        "per_query": list(zip([int(q) for q in query_ids], aps, ahps)),
        "map_skipped_queries": n - len(found),
        "n_queries": n,
    }


def bf_adam(params, grads, m, v, t, lr, beta1, beta2, eps):
    """One bias-corrected Adam step from the textbook recurrence, on fresh arrays.

    Returns new (params, m, v) lists; the inputs are left untouched.
    """
    new_p, new_m, new_v = [], [], []
    for p, g, m_i, v_i in zip(params, grads, m, v):
        m_i = beta1 * m_i + (1.0 - beta1) * g
        v_i = beta2 * v_i + (1.0 - beta2) * g * g
        m_hat = m_i / (1.0 - beta1**t)
        v_hat = v_i / (1.0 - beta2**t)
        new_p.append(p - lr * m_hat / (np.sqrt(v_hat) + eps))
        new_m.append(m_i)
        new_v.append(v_i)
    return new_p, new_m, new_v


def bf_sigmoid(s):
    """Logistic function by boolean masks: 1/(1+exp(-s)) where s >= 0, else exp(s)/(1+exp(s)).

    The result is clipped into [tiny, 1 - epsneg]; NaN inputs take the second branch.
    """
    out = np.empty_like(s)
    pos = s >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-s[pos]))
    es = np.exp(s[~pos])
    out[~pos] = es / (1.0 + es)
    return np.clip(out, np.finfo(np.float64).tiny, 1.0 - np.finfo(np.float64).epsneg)


def bf_kl_loss(zv, tv):
    """k = 1 nearest-neighbour divergence estimate and its gradient, one sample at a time.

    ``zv`` is B x K and ``tv`` M x K, both float64.  Distances are Euclidean
    and clamped at 1e-12 before the logarithm; each row's target pull and
    neighbour push are applied in row order on numpy scalars.
    """
    eps = 1e-12
    b = zv.shape[0]
    dist_t = np.sqrt(((zv[:, None, :] - tv[None, :, :]) ** 2).sum(axis=2))
    nn_t = np.argmin(dist_t, axis=1)
    nu_t = dist_t[np.arange(b), nn_t]

    dist_z = np.sqrt(((zv[:, None, :] - zv[None, :, :]) ** 2).sum(axis=2))
    np.fill_diagonal(dist_z, np.inf)
    nn_z = np.argmin(dist_z, axis=1)
    nu_z = dist_z[np.arange(b), nn_z]

    value = float(np.mean(np.log(np.maximum(nu_t, eps)) - np.log(np.maximum(nu_z, eps))))

    grad = np.zeros_like(zv)
    for i in range(b):
        if nu_t[i] > eps:
            v = zv[i] - tv[nn_t[i]]
            grad[i] += v / (nu_t[i] ** 2 * b)
        if np.isfinite(nu_z[i]) and nu_z[i] > eps:
            v = zv[i] - zv[nn_z[i]]
            grad[i] -= v / (nu_z[i] ** 2 * b)
            grad[nn_z[i]] += v / (nu_z[i] ** 2 * b)
    return value, grad


def pair_weight(d, cfg):
    """Decaying pair weight in (0, 1]: 1 at distance 0, small for far pairs."""
    d = np.asarray(d, dtype=np.float64)
    out = (cfg.gamma / (cfg.gamma + d)) ** cfg.rho
    return float(out) if out.ndim == 0 else out


def batch_scale(distances, floor) -> float:
    """Mean of the off-diagonal entries, clamped below by ``floor``."""
    distances = np.asarray(distances, dtype=np.float64)
    b = distances.shape[0]
    if distances.shape != (b, b) or b < 2:
        raise ValueError(f"need a square matrix with at least 2 rows, got {distances.shape}")
    return max(float((distances.sum() - distances.trace()) / (b * (b - 1))), floor)


def bf_sim_loss(z, d, cfg):
    """Similarity loss and its gradient, one ordered pair (i, j) at a time.

    The value is the mean over all B * B pairs of
    ``|manhattan(z_i, z_j) / tau_z - d_ij / tau_y| * pair_weight(d_ij)``, with
    tau_z and tau_y the ``batch_scale`` of the Manhattan and label distances.
    Each pair's term is differentiated in z_i and z_j, and through tau_z unless
    the floor clamps it; sign(0) = 0.
    """
    def sign(x):
        return math.copysign(1.0, x) if x else 0.0

    b, k = z.shape
    zl = z.tolist()
    manh = np.array([[math.fsum(abs(p - q) for p, q in zip(zi, zj)) for zj in zl] for zi in zl])
    tau_z = batch_scale(manh, cfg.tau_floor)
    tau_y = batch_scale(d, cfg.tau_floor)
    value = 0.0
    weighted = 0.0  # sum of w * sign(residual) * manhattan
    grad = np.zeros((b, k))
    dtau = np.zeros((b, k))  # d tau_z / d z
    for i in range(b):
        for j in range(b):
            w = pair_weight(d[i, j], cfg)
            r = manh[i, j] / tau_z - d[i, j] / tau_y
            value += abs(r) * w
            s = w * sign(r)
            weighted += s * manh[i, j]
            for c in range(k):
                dm = sign(zl[i][c] - zl[j][c])  # d manh_ij / d z_ic = -d manh_ij / d z_jc
                grad[i, c] += s * dm / tau_z
                grad[j, c] -= s * dm / tau_z
                dtau[i, c] += dm / (b * (b - 1))
                dtau[j, c] -= dm / (b * (b - 1))
    if tau_z > cfg.tau_floor:
        grad -= weighted / tau_z**2 * dtau
    return value / (b * b), grad / (b * b)


def np_sim_loss(z, d, cfg):
    """``bf_sim_loss`` in numpy's own summation order, on fresh arrays.

    Pair by pair the arithmetic is ``bf_sim_loss``'s, but each Manhattan
    distance is numpy's row sum over K and the pair terms are summed as whole
    arrays, so its bits are those the library's vectorized loss must give.
    """
    b = z.shape[0]
    diff = z[:, None, :] - z[None, :, :]
    sgn = np.sign(diff)
    manh = np.abs(diff).sum(axis=2)
    raw_tau_z = float((manh.sum() - manh.trace()) / (b * (b - 1)))
    tau_z = max(raw_tau_z, cfg.tau_floor)
    tau_y = max(float((d.sum() - d.trace()) / (b * (b - 1))), cfg.tau_floor)
    w = pair_weight(d, cfg)
    resid = manh / tau_z - d / tau_y
    value = float((np.abs(resid) * w).sum()) / (b * b)
    coeff = w * np.sign(resid)
    grad = np.einsum("bp,bpk->bk", coeff + coeff.T, sgn) / (b * b * tau_z)
    if raw_tau_z > cfg.tau_floor:
        dtau = 2.0 * sgn.sum(axis=1) / (b * (b - 1))
        grad -= (float((coeff * manh).sum()) / (b * b * tau_z * tau_z)) * dtau
    return value, grad


def bf_encoder_forward(layers, x):
    """ReLU hidden layers and a logistic output clamped into (0, 1), on fresh arrays.

    ``layers`` is [(weights out x in, biases)].  Returns (z, pre-activations,
    activations), one entry per layer in the last two.
    """
    pre, act = [], []
    a = x
    for i, (w, b) in enumerate(layers):
        s = a @ w.T + b
        if i < len(layers) - 1:
            a = np.maximum(s, 0.0)
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                a = np.where(s >= 0, 1.0 / (1.0 + np.exp(-s)), np.exp(s) / (1.0 + np.exp(s)))
            a = np.clip(a, np.finfo(np.float64).tiny, 1.0 - np.finfo(np.float64).epsneg)
        pre.append(s)
        act.append(a)
    return a, pre, act


def bf_encoder_backward(layers, x, pre, act, grad_z):
    """Per-layer (weights, biases) gradients of sum(grad_z * z).

    The ReLU derivative is taken from the pre-activations: 1 where s > 0,
    else 0.
    """
    grads = []
    delta = grad_z * act[-1] * (1.0 - act[-1])
    for i in reversed(range(len(layers))):
        below = x if i == 0 else act[i - 1]
        grads.insert(0, (delta.T @ below, delta.sum(axis=0)))
        if i > 0:
            delta = (delta @ layers[i][0]) * (pre[i - 1] > 0.0)
    return grads


def bf_train(layers, head, features, class_idx, dist, batch_size, epochs, perm, target, loss,
             adam):
    """Minibatch training as a straight-line loop over separate, fresh arrays.

    ``layers`` is the encoder's [(weights, biases)] and ``head`` the
    classifier's (weights, biases); neither is written.  Each epoch walks
    ``perm(n)`` in batches, dropping the ragged end.  Each step draws
    ``target((batch_size, K))``, takes the batch's distances with ``np.ix_``,
    calls ``loss(z, distances, y, head_w, head_b, target)`` for
    (total, sim, kl, cls, grad_z, grad_head_w, grad_head_b), backpropagates
    with ``bf_encoder_backward`` and moves every array with ``bf_adam`` under
    ``adam`` = (lr, beta1, beta2, eps).  Returns (layers, head, records), a
    record being (step, sim, kl, cls, total).
    """
    params = [a.copy() for pair in layers for a in pair] + [a.copy() for a in head]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    n_layers = len(layers)
    records = []
    step = 0
    for _ in range(epochs):
        order = perm(features.shape[0])
        for start in range(0, features.shape[0] - batch_size + 1, batch_size):
            idx = order[start : start + batch_size]
            x, y = features[idx], class_idx[idx]
            t = target((batch_size, head[0].shape[1]))
            pairs = [(params[2 * i], params[2 * i + 1]) for i in range(n_layers)]
            z, pre, act = bf_encoder_forward(pairs, x)
            total, sim, kl, cls, grad_z, grad_w, grad_b = loss(
                z, dist[np.ix_(y, y)], y, params[-2], params[-1], t
            )
            step += 1
            grads = [g for pair in bf_encoder_backward(pairs, x, pre, act, grad_z) for g in pair]
            params, m, v = bf_adam(params, grads + [grad_w, grad_b], m, v, step, *adam)
            records.append((step, sim, kl, cls, total))
    pairs = [(params[2 * i], params[2 * i + 1]) for i in range(n_layers)]
    return pairs, (params[-2], params[-1]), records


def spearman(x, y) -> float:
    """Rank correlation via average ranks and Pearson on the ranks."""
    def ranks(v):
        v = np.asarray(v, dtype=float)
        order = np.argsort(v, kind="stable")
        r = np.empty(len(v))
        r[order] = np.arange(1, len(v) + 1)
        # average ties
        for val in np.unique(v):
            mask = v == val
            r[mask] = r[mask].mean()
        return r

    rx, ry = ranks(x), ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx * ry).sum() / np.sqrt((rx**2).sum() * (ry**2).sum()))


def ks_statistic_uniform(sample) -> float:
    """One-sample Kolmogorov-Smirnov statistic against Uniform(0, 1)."""
    s = np.sort(np.asarray(sample, dtype=float))
    n = len(s)
    up = np.arange(1, n + 1) / n - s
    down = s - np.arange(0, n) / n
    return float(max(up.max(), down.max()))
