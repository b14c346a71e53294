import itertools
import json
import math

import numpy as np
import pytest

from muxim.pgm import (GROUP_ALWAYS_OFF, GROUP_ALWAYS_ON, GROUP_CORRELATED,
                       _mi_matrix, chow_liu_fit, mutual_information,
                       pearson_matrix, tree_condition, variable_grouping)


def fit_on(data, xi=0.95, alpha=1.0):
    corr = pearson_matrix(data)
    part = variable_grouping(data, corr, xi)
    return chow_liu_fit(data, part, alpha=alpha), part


def singleton_partition(data):
    corr = pearson_matrix(data)
    return variable_grouping(data, corr, 0.999999)


# -- Pearson ----------------------------------------------------------------

def test_pearson_identical_and_complementary_columns():
    data = np.array([[1, 1, 0], [0, 0, 1], [1, 1, 0], [0, 0, 1]])
    q = pearson_matrix(data)
    assert q[0, 1] == pytest.approx(1.0)
    assert q[0, 2] == pytest.approx(-1.0)


def test_pearson_constant_column_is_undefined():
    data = np.array([[1, 1], [0, 1], [1, 1]])
    q = pearson_matrix(data)
    assert np.isnan(q[0, 1]) and np.isnan(q[1, 1])
    assert not q.is_defined(0, 1)
    assert q.is_defined(0, 0)


def test_pearson_symmetry_and_unit_diagonal(rng):
    data = (rng.random((40, 6)) < 0.5).astype(np.uint8)
    q = pearson_matrix(data)
    defined = q.defined
    vals = q.values[np.ix_(defined, defined)]
    assert np.allclose(vals, vals.T, atol=1e-12)
    assert np.allclose(np.diag(vals), 1.0, atol=1e-12)


def test_pearson_needs_two_rows():
    with pytest.raises(ValueError):
        pearson_matrix(np.array([[0, 1]]))


# -- grouping ----------------------------------------------------------------

def test_grouping_collects_duplicated_columns():
    col = np.array([0, 1, 1, 0, 1])
    data = np.column_stack([col, col, col]).astype(np.uint8)
    part = variable_grouping(data, pearson_matrix(data), 0.99)
    assert part.groups == [[0, 1, 2]]
    assert part.kinds == [GROUP_CORRELATED]


def test_grouping_orthogonal_columns_stay_singletons():
    # balanced design: pairwise empirical correlation exactly zero
    data = np.array([
        [0, 0, 0],
        [0, 1, 1],
        [1, 0, 1],
        [1, 1, 0],
    ], dtype=np.uint8)
    q = pearson_matrix(data)
    off = q.values[~np.eye(3, dtype=bool)]
    assert np.allclose(off, 0.0, atol=1e-12)
    part = variable_grouping(data, q, 0.5)
    assert sorted(part.groups) == [[0], [1], [2]]


def test_grouping_constant_columns_form_special_groups():
    data = np.array([
        [1, 0, 0, 1],
        [1, 0, 1, 0],
        [1, 0, 0, 1],
    ], dtype=np.uint8)
    part = variable_grouping(data, pearson_matrix(data), 0.9)
    kinds = dict(zip(map(tuple, part.groups), part.kinds))
    assert kinds[(0,)] == GROUP_ALWAYS_ON
    assert kinds[(1,)] == GROUP_ALWAYS_OFF
    assert set(part.tree_variables()) <= {2, 3}
    assert 0 not in part.tree_variables() and 1 not in part.tree_variables()


def test_grouping_partition_covers_all_nodes(rng):
    data = (rng.random((30, 9)) < rng.random(9)).astype(np.uint8)
    part = variable_grouping(data, pearson_matrix(data), 0.6)
    seen = sorted(v for g in part.groups for v in g)
    assert seen == list(range(9))
    for group, rep in zip(part.groups, part.representatives):
        assert rep in group
    assert all(part.rep_of[v] in part.representatives for v in range(9))


def test_grouping_representative_is_closest_to_centroid():
    # group of three correlated columns; middle one hugs the mean
    base = np.array([0, 0, 1, 1, 1, 0, 1, 1], dtype=np.uint8)
    a = base.copy()
    b = base.copy(); b[0] = 1
    c = base.copy(); c[7] = 0; c[5] = 1
    data = np.column_stack([a, b, c])
    part = variable_grouping(data, pearson_matrix(data), 0.3)
    assert part.groups == [[0, 1, 2]]
    centroid = data.mean(axis=1)
    dists = [((data[:, i] - centroid) ** 2).sum() for i in range(3)]
    assert part.representatives[0] == int(np.argmin(dists))


def test_grouping_xi_validation():
    data = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    with pytest.raises(ValueError):
        variable_grouping(data, pearson_matrix(data), 0.0)


# -- mutual information ------------------------------------------------------

def test_mi_independent_fair_coins_zero():
    data = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8)
    assert mutual_information(data, 0, 1, alpha=0.0) == pytest.approx(0.0, abs=1e-15)


def test_mi_perfect_correlation_equals_entropy():
    data = np.array([[0, 0], [1, 1], [0, 0], [1, 1]], dtype=np.uint8)
    assert mutual_information(data, 0, 1, alpha=0.0) == pytest.approx(
        math.log(2), abs=1e-12)


def mi_reference(data, a, b, alpha):
    """Independent plain-loop implementation of the smoothed plug-in MI."""
    m = data.shape[0]
    joint = np.zeros((2, 2))
    for row in data:
        joint[int(row[a]), int(row[b])] += 1
    p = (joint + alpha) / (m + 4 * alpha)
    pa, pb = p.sum(axis=1), p.sum(axis=0)
    total = 0.0
    for i in range(2):
        for j in range(2):
            if p[i, j] > 0:
                total += p[i, j] * math.log(p[i, j] / (pa[i] * pb[j]))
    return total


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_mi_matches_direct_summation(rng, alpha):
    for _ in range(20):
        data = (rng.random((25, 4)) < rng.random(4)).astype(np.uint8)
        a, b = rng.choice(4, size=2, replace=False)
        got = mutual_information(data, int(a), int(b), alpha=alpha)
        want = mi_reference(data, int(a), int(b), alpha)
        assert got == pytest.approx(max(want, 0.0), abs=1e-12)
        assert got == pytest.approx(mutual_information(data, int(b), int(a),
                                                       alpha=alpha), abs=1e-12)
        assert 0.0 <= got <= math.log(2) + 1e-12


# -- tree fit ----------------------------------------------------------------

def test_two_variable_tree_cpt_from_joint_counts():
    data = np.array([[1, 1]] * 6 + [[1, 0]] * 2 + [[0, 1]] * 1 + [[0, 0]] * 3,
                    dtype=np.uint8)
    part = singleton_partition(data)
    tree = chow_liu_fit(data, part, alpha=1.0)
    assert tree.parent == {1: 0}
    assert tree.root == 0
    # root marginal: (8 ones + 1) / (12 + 2)
    assert tree.root_marginal[1] == pytest.approx(9 / 14)
    # P(child=1 | parent=1) = (6 + 1) / (8 + 2)
    assert tree.cpts[1][1, 1] == pytest.approx(7 / 10)
    assert tree.cpts[1][0, 1] == pytest.approx(1 / 3)  # (1+1)/(4+2)


def test_tree_shape_invariants(rng):
    data = (rng.random((60, 7)) < rng.random(7)).astype(np.uint8)
    data[:, 0] = data[:, 1] ^ (rng.random(60) < 0.1)  # inject dependence
    part = singleton_partition(data)
    tree = chow_liu_fit(data, part, alpha=1.0)
    q = len(tree.nodes)
    assert tree.num_edges == q - 1
    assert tree.root == min(tree.nodes)
    for child, cpt in tree.cpts.items():
        assert np.allclose(cpt.sum(axis=1), 1.0, atol=1e-12)
    assert tree.root_marginal.sum() == pytest.approx(1.0, abs=1e-12)
    assert tree.pair_computations == q * (q - 1) // 2


def test_chain_structure_recovered():
    rng = np.random.default_rng(5)
    m = 8000
    x1 = rng.random(m) < 0.5
    x2 = np.where(x1, rng.random(m) < 0.92, rng.random(m) < 0.08)
    x3 = np.where(x2, rng.random(m) < 0.92, rng.random(m) < 0.08)
    data = np.column_stack([x1, x2, x3]).astype(np.uint8)
    mi12 = mutual_information(data, 0, 1, alpha=0.0)
    mi23 = mutual_information(data, 1, 2, alpha=0.0)
    mi13 = mutual_information(data, 0, 2, alpha=0.0)
    assert mi13 < min(mi12, mi23)
    tree, _ = fit_on(data)
    edges = {(min(p, c), max(p, c)) for c, p in tree.parent.items()}
    assert edges == {(0, 1), (1, 2)}


def all_spanning_trees(q):
    """Enumerate labeled trees on q nodes via Pruefer sequences."""
    if q == 1:
        yield []
        return
    if q == 2:
        yield [(0, 1)]
        return
    for seq in itertools.product(range(q), repeat=q - 2):
        degree = [1] * q
        for v in seq:
            degree[v] += 1
        seq = list(seq)
        edges = []
        ptr = []
        import heapq
        leaves = [v for v in range(q) if degree[v] == 1]
        heapq.heapify(leaves)
        for v in seq:
            leaf = heapq.heappop(leaves)
            edges.append((min(leaf, v), max(leaf, v)))
            degree[v] -= 1
            if degree[v] == 1:
                heapq.heappush(leaves, v)
        u, w = heapq.heappop(leaves), heapq.heappop(leaves)
        edges.append((min(u, w), max(u, w)))
        yield edges


def test_fitted_tree_maximizes_mi_over_all_spanning_trees(rng):
    for _ in range(8):
        q = int(rng.integers(2, 6))
        data = (rng.random((40, q)) < rng.random(q)).astype(np.uint8)
        data[:, 0] ^= (rng.random(40) < 0.05).astype(np.uint8)
        part = singleton_partition(data)
        if len(part.tree_variables()) != q:
            continue  # constant column rolled in; skip draw
        tree = chow_liu_fit(data, part, alpha=1.0)
        mi = {(a, b): mutual_information(data, a, b, alpha=1.0)
              for a in range(q) for b in range(a + 1, q)}
        best = max(sum(mi[e] for e in edges) for edges in all_spanning_trees(q))
        assert tree.total_mi() == pytest.approx(best, abs=1e-12)


# -- referees: a Kruskal tree and a per-pair grouping loop ----------------------

def kruskal_reference(data, part, alpha):
    """Rooted Kruskal tree: sort every pair, union-find, orient from the root.

    Pairs sort by (-MI, lower id, higher id), reading `mi[a, b]` with a < b
    by position in the tree variables.  Returns (parent, edge_mi).
    """
    variables = part.tree_variables()
    q = len(variables)
    mi = _mi_matrix(np.asarray(data, dtype=np.float64)[:, variables], alpha)
    edges = sorted(((a, b) for a in range(q) for b in range(a + 1, q)),
                   key=lambda e: (-mi[e[0], e[1]],
                                  min(variables[e[0]], variables[e[1]]),
                                  max(variables[e[0]], variables[e[1]])))
    comp = list(range(q))

    def find(a):
        while comp[a] != a:
            a = comp[a]
        return a

    adj = {v: [] for v in variables}
    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            comp[rb] = ra
            adj[variables[a]].append(variables[b])
            adj[variables[b]].append(variables[a])
    idx = {v: i for i, v in enumerate(variables)}
    parent, edge_mi = {}, {}
    stack, seen = [min(variables)], {min(variables)}
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                parent[u] = v
                edge_mi[(v, u)] = float(mi[idx[v], idx[u]])
                stack.append(u)
    return parent, edge_mi


def grouping_reference(data, corr, xi):
    """Per-pair grouping loop: (groups, representatives, kinds, rep_of)."""
    x = np.asarray(data, dtype=np.float64)
    n = x.shape[1]
    means = x.mean(axis=0)
    groups, reps, kinds = [], [], []
    grouped = np.zeros(n, dtype=bool)
    for v in range(n):
        if not corr.defined[v] or grouped[v]:
            continue
        group = [v]
        grouped[v] = True
        for u in range(v + 1, n):
            if corr.defined[u] and not grouped[u] and corr.values[v, u] > xi:
                group.append(u)
                grouped[u] = True
        centroid = x[:, group].mean(axis=1)
        dists = ((x[:, group] - centroid[:, None]) ** 2).sum(axis=0)
        groups.append(group)
        reps.append(group[int(np.argmin(dists))])
        kinds.append(GROUP_CORRELATED)
    for kind, pick in ((GROUP_ALWAYS_ON, means >= 0.5), (GROUP_ALWAYS_OFF, means < 0.5)):
        group = [v for v in range(n) if not corr.defined[v] and pick[v]]
        if group:
            groups.append(group)
            reps.append(min(group))
            kinds.append(kind)
    rep_of = np.empty(n, dtype=np.int64)
    for group, rep in zip(groups, reps):
        rep_of[group] = rep
    return groups, reps, kinds, rep_of


def referee_datasets(seed):
    """Seeded random, duplicated-column and three-row binary datasets.

    Duplicated columns are copies or complements of a few base columns with
    rare flips: their MI ties exactly or within an ulp, where `_mi_matrix`
    is not exactly symmetric and only Kruskal's entry picks Kruskal's tree.
    """
    rng = np.random.default_rng(seed)
    for _ in range(60):
        n = int(rng.integers(2, 30))
        m = int(rng.integers(4, 60))
        yield "random", (rng.random((m, n)) < rng.random(n)).astype(np.uint8)
        base = (rng.random((m, int(rng.integers(1, 6)))) < 0.5).astype(np.uint8)
        cols = rng.integers(0, base.shape[1], size=n)
        complement = (rng.random(n) < 0.5).astype(np.uint8)
        flips = (rng.random((m, n)) < 0.03).astype(np.uint8)
        yield "duplicated", base[:, cols] ^ complement ^ flips
        yield "three-row", (rng.random((3, n)) < 0.5).astype(np.uint8)


@pytest.mark.parametrize("xi", [0.6, 0.999999])
@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_tree_fit_matches_kruskal_bit_for_bit(xi, alpha):
    fits = 0
    for kind, data in referee_datasets(seed=int(xi * 1e6) + int(alpha)):
        part = variable_grouping(data, pearson_matrix(data), xi)
        if not part.tree_variables():
            continue
        tree = chow_liu_fit(data, part, alpha=alpha)
        parent, edge_mi = kruskal_reference(data, part, alpha)
        assert tree.parent == parent, kind
        assert tree.edge_mi == edge_mi, kind  # exact float equality
        fits += 1
    assert fits >= 160


@pytest.mark.parametrize("xi", [0.3, 0.6, 0.8, 0.999999])
def test_grouping_matches_per_pair_loop(xi):
    for kind, data in referee_datasets(seed=int(xi * 1e6) + 17):
        corr = pearson_matrix(data)
        part = variable_grouping(data, corr, xi)
        groups, reps, kinds, rep_of = grouping_reference(data, corr, xi)
        assert part.groups == groups, kind
        assert part.representatives == reps, kind
        assert part.kinds == kinds, kind
        assert np.array_equal(part.rep_of, rep_of), kind
        assert all(type(v) is int for g in part.groups for v in g)
        assert all(type(r) is int for r in part.representatives)


# -- inference ---------------------------------------------------------------

def joint_prob(tree, assign):
    p = tree.root_marginal[assign[tree.root]]
    for child, par in tree.parent.items():
        p *= tree.cpts[child][assign[par], assign[child]]
    return p


def brute_condition(tree, query, evidence):
    """P(query = 1 | evidence) by 2^q enumeration; None when P(evidence) = 0."""
    num = den = 0.0
    for vals in itertools.product([0, 1], repeat=len(tree.nodes)):
        assign = dict(zip(tree.nodes, vals))
        if any(assign[k] != v for k, v in evidence.items()):
            continue
        p = joint_prob(tree, assign)
        den += p
        if assign[query] == 1:
            num += p
    return num / den if den else None


def test_observed_query_returns_its_value(rng):
    data = (rng.random((30, 4)) < 0.5).astype(np.uint8)
    tree, _ = fit_on(data, xi=0.999999)
    v = tree.nodes[0]
    assert tree_condition(tree, v, {v: 1}) == 1.0
    assert tree_condition(tree, v, {v: 0}) == 0.0


def test_empty_evidence_matches_smoothed_marginal(rng):
    data = (rng.random((50, 3)) < np.array([0.3, 0.6, 0.5])).astype(np.uint8)
    tree, _ = fit_on(data, xi=0.999999)
    assert tree_condition(tree, tree.root, {}) == pytest.approx(
        tree.root_marginal[1], abs=1e-12)


def test_inference_matches_joint_enumeration(rng):
    for _ in range(10):
        q = int(rng.integers(2, 7))
        data = (rng.random((50, q)) < rng.random(q) * 0.8 + 0.1).astype(np.uint8)
        part = singleton_partition(data)
        if len(part.tree_variables()) != q:
            continue
        tree = chow_liu_fit(data, part, alpha=1.0)
        for _ in range(10):
            k = int(rng.integers(0, q))
            ev_nodes = rng.choice(tree.nodes, size=k, replace=False)
            ev = {int(v): int(rng.integers(0, 2)) for v in ev_nodes}
            query = int(rng.choice(tree.nodes))
            got = tree_condition(tree, query, ev)
            want = float(ev[query]) if query in ev else brute_condition(tree, query, ev)
            assert got == pytest.approx(want, abs=1e-9)


def test_unsmoothed_inference_matches_joint_enumeration():
    """alpha 0 CPTs hold zeros, so messages can be zero: exact within 1e-9,
    and evidence the tree gives probability 0 raises."""
    rng = np.random.default_rng(707)
    checked = impossible = 0
    while checked < 400:
        q = int(rng.integers(2, 10))
        m = int(rng.integers(6, 30))
        data = (rng.random((m, q)) < rng.random(q) * 0.8 + 0.1).astype(np.uint8)
        part = singleton_partition(data)
        if len(part.tree_variables()) != q:
            continue
        tree = chow_liu_fit(data, part, alpha=0.0)
        for _ in range(5):
            k = int(rng.integers(0, q + 1))
            ev_nodes = rng.choice(tree.nodes, size=k, replace=False)
            ev = {int(v): int(rng.integers(0, 2)) for v in ev_nodes}
            query = int(rng.choice(tree.nodes))
            checked += 1
            want = brute_condition(tree, query, ev)
            if want is None:
                impossible += 1
                row = np.array([ev.get(v, -1) for v in tree.nodes], dtype=np.int8)
                with pytest.raises(ValueError, match="zero probability"):
                    tree.condition_batch(row)
                continue
            got = tree_condition(tree, query, ev)
            assert abs(got - want) <= 1e-9, (q, ev, query, got, want)
    assert impossible >= 20


def condition_batch_reference(tree, evidence):
    """The earlier BP kernel, kept as a referee: depth-first positions, einsum
    messages, and two downward sweeps (dividing out a child's own message
    when every message is positive, a per-node prefix/suffix loop else)."""
    children = {v: sorted(c for c, p in tree.parent.items() if p == v)
                for v in tree.nodes}
    order, stack = [], [tree.root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(reversed(children[v]))
    q = len(order)
    pos = {v: i for i, v in enumerate(order)}
    node_to_pos = np.array([pos[v] for v in tree.nodes], dtype=np.int64)
    pos_parent = np.array([-1] + [pos[tree.parent[order[p]]] for p in range(1, q)],
                          dtype=np.int64)
    pos_children = [[pos[c] for c in children[v]] for v in order]
    pos_cpt = np.empty((q, 2, 2))
    pos_cpt[0] = np.stack([tree.root_marginal, tree.root_marginal])
    for p in range(1, q):
        pos_cpt[p] = tree.cpts[order[p]]
    depth = np.zeros(q, dtype=np.int64)
    for p in range(1, q):
        depth[p] = depth[pos_parent[p]] + 1
    levels = []
    for d in range(1, int(depth.max()) + 1 if q > 1 else 1):
        idx = np.flatnonzero(depth == d)
        idx = idx[np.argsort(pos_parent[idx], kind="stable")]
        parents = pos_parent[idx]
        starts = np.flatnonzero(np.concatenate(([True], parents[1:] != parents[:-1])))
        levels.append((idx, parents, parents[starts], starts))

    ev = np.asarray(evidence, dtype=np.int8).reshape(-1, q)
    ev_topo = np.full_like(ev, -1)
    ev_topo[:, node_to_pos] = ev
    U = ev.shape[0]
    lam = np.ones((U, q, 2))
    lam[..., 1][ev_topo == 0] = 0.0
    lam[..., 0][ev_topo == 1] = 0.0
    prodmsg = np.ones((U, q, 2))
    msg = np.empty((U, q, 2))
    for idx, parents, par_uniq, starts in reversed(levels):
        m = np.einsum("ulc,lpc->ulp", lam[:, idx] * prodmsg[:, idx], pos_cpt[idx])
        msg[:, idx] = m
        prodmsg[:, par_uniq] *= np.multiply.reduceat(m, starts, axis=1)
    pi = np.empty((U, q, 2))
    pi[:, 0, :] = tree.root_marginal
    if q > 1 and msg[:, 1:].min() > 0.0:
        for idx, parents, _, _ in levels:
            to_child = (pi[:, parents] * lam[:, parents] * prodmsg[:, parents]) / msg[:, idx]
            pi[:, idx] = np.einsum("ulp,lpc->ulc", to_child, pos_cpt[idx])
    elif q > 1:
        for p in range(q):
            kids = pos_children[p]
            if not kids:
                continue
            msgs = msg[:, kids, :]
            pref = np.ones((U, len(kids) + 1, 2))
            for i in range(len(kids)):
                pref[:, i + 1] = pref[:, i] * msgs[:, i]
            suf = np.ones((U, len(kids) + 1, 2))
            for i in range(len(kids) - 1, -1, -1):
                suf[:, i] = suf[:, i + 1] * msgs[:, i]
            base = pi[:, p, :] * lam[:, p, :]
            for i, c in enumerate(kids):
                pi[:, c, :] = (base * pref[:, i] * suf[:, i + 1]) @ pos_cpt[c]
    belief = lam * prodmsg * pi
    z = belief.sum(axis=2)
    if np.any(z <= 0.0):
        raise ValueError("evidence has zero probability under the tree")
    return (belief[..., 1] / z)[:, node_to_pos]


def kernel_datasets(rng):
    """Single-column, random, deep (noisy chain) and wide (noisy star) data."""
    yield "single", np.array([[1], [0], [1], [1]], dtype=np.uint8)
    for _ in range(8):
        q = int(rng.integers(2, 30))
        m = int(rng.integers(8, 60))
        yield "random", (rng.random((m, q)) < rng.random(q) * 0.8 + 0.1).astype(np.uint8)
        noise = rng.random((m, q)) < 0.15
        hub = rng.random(m) < 0.5
        yield "deep", (np.logical_xor.accumulate(noise, axis=1) ^ hub[:, None]).astype(np.uint8)
        wide = noise ^ hub[:, None]
        wide[:, 0] = hub
        yield "wide", wide.astype(np.uint8)


def evidence_batch(rng, q, rows=30):
    """Mixed -1/0/1 rows, positive-only rows, and repeats of both."""
    mixed = rng.integers(-1, 2, size=(rows, q))
    mixed[rng.random((rows, q)) < 0.5] = -1
    positive = np.where(rng.random((rows, q)) < 0.3, 1, -1)
    ev = np.concatenate([mixed, positive, np.full((1, q), -1)]).astype(np.int8)
    return np.concatenate([ev, ev[rng.integers(0, len(ev), size=rows)]])


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_condition_batch_matches_earlier_kernel_bit_for_bit(alpha):
    rng = np.random.default_rng(int(alpha * 10) + 808)
    depth, fan_out = {}, {}
    for kind, data in kernel_datasets(rng):
        part = singleton_partition(data)
        if not part.tree_variables():
            continue
        tree = chow_liu_fit(data, part, alpha=alpha)
        ev = evidence_batch(rng, len(tree.nodes))
        got = tree.condition_batch(ev)
        assert got.tobytes() == condition_batch_reference(tree, ev).tobytes(), kind
        depth[kind] = max(depth.get(kind, 0), len(tree._levels))
        fan_out[kind] = max([fan_out.get(kind, 0)]
                            + [list(tree.parent.values()).count(v) for v in tree.nodes])
    assert depth["single"] == 0 and depth["deep"] >= 12 and fan_out["wide"] >= 12


def test_condition_batch_matches_earlier_kernel_unsmoothed():
    """alpha 0: the same posteriors within 1e-12 and the same refusals."""
    rng = np.random.default_rng(909)
    compared = refused = 0
    for kind, data in kernel_datasets(rng):
        part = singleton_partition(data)
        if not part.tree_variables():
            continue
        tree = chow_liu_fit(data, part, alpha=0.0)
        feasible = []
        for row in evidence_batch(rng, len(tree.nodes), rows=15):
            try:
                want = condition_batch_reference(tree, row)
            except ValueError:
                with pytest.raises(ValueError, match="zero probability"):
                    tree.condition_batch(row)
                refused += 1
                continue
            np.testing.assert_allclose(tree.condition_batch(row), want, rtol=0, atol=1e-12)
            feasible.append(row)
        ev = np.array(feasible)
        np.testing.assert_allclose(tree.condition_batch(ev),
                                   condition_batch_reference(tree, ev), rtol=0, atol=1e-12)
        compared += len(feasible)
    assert compared >= 300 and refused >= 20


def test_inference_rejects_foreign_evidence(rng):
    data = (rng.random((30, 3)) < 0.5).astype(np.uint8)
    tree, _ = fit_on(data, xi=0.999999)
    with pytest.raises(ValueError, match="not a tree variable"):
        tree_condition(tree, tree.root, {999: 1})
    with pytest.raises(ValueError, match="not a tree variable"):
        tree_condition(tree, 999, {})


def test_single_variable_tree():
    data = np.array([[1], [0], [1], [1]], dtype=np.uint8)
    part = singleton_partition(data)
    tree = chow_liu_fit(data, part, alpha=0.0)
    assert tree.nodes == [0] and tree.parent == {}
    assert tree_condition(tree, 0, {}) == pytest.approx(0.75)


def test_tree_json_export(rng):
    data = (rng.random((30, 4)) < 0.5).astype(np.uint8)
    part = singleton_partition(data)
    tree = chow_liu_fit(data, part, alpha=1.0)
    doc = json.loads(tree.to_json(part))
    assert doc["root"] == tree.root
    assert len(doc["edges"]) == tree.num_edges
    assert "group_partition" in doc and "cpts" in doc
