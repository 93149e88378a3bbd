"""Oracle for the stacked evaluator: the evaluation loop that keeps one Python
``Branch`` per branch and walks every step once per branch.

It calls the kernels of ``lrc.channels`` and ``lrc.weyl`` on one density matrix
or one (d,)*n state tensor at a time, their 2-D behaviour, and splits branches
one at a time in branch-major, outcome order.  Its sampling fallback draws one
row per branch with ``rng.choice`` as branches are counted, so its draws differ
from the stacked evaluator's; compare exact runs only.
"""

import itertools

import numpy as np

from lrc.channels import (
    _footprint_rows,
    _from_footprint_rows,
    _on_footprint,
    apply_local_channel,
    apply_local_kraus,
    apply_local_measurement,
    reset_sites,
)
from lrc.circuits import EMPTY_INSERTIONS, Branch, CircuitResult, EvaluationError, _instance_steps
from lrc.weyl import _SMALL_DIM, check_budget


def evaluate_per_branch(circuit, insertions=None, ideal=False, branch_limit=4096, rng=None):
    """``lrc.circuits.evaluate`` one branch at a time, on the route evaluate picks."""
    if insertions is None:
        insertions = [EMPTY_INSERTIONS] * len(circuit.gadgets)
    pure = circuit.dim > _SMALL_DIM and (ideal or all(
        c.kraus is not None for g in circuit.gadgets for c in (g.noise, g.idle_noise) if c is not None))
    branches, exact = run_per_branch(circuit, insertions, ideal, branch_limit, rng, pure)
    for ins in insertions:
        for wire, add in ins.classical_add.items():
            for br in branches:
                if wire in br.record:
                    br.record[wire] = (br.record[wire] + add) % circuit.d
    return CircuitResult(circuit, branches, exact=exact)


def run_per_branch(circuit, insertions, ideal, branch_limit, rng, pure):
    d, n, D = circuit.d, circuit.n_qudits, circuit.dim
    _check_stack(1, D, pure)
    state = np.zeros((d,) * n if pure else (D, D), dtype=complex)
    state.flat[0] = 1.0
    branches = [Branch(1.0, state, {})]
    exact, act = True, _act_pure if pure else _act_dense
    for steps in _instance_steps(circuit, insertions, ideal):
        for step in steps:
            kind = step[0]
            if kind == "weyl" and step[1].is_identity(ignore_phase=True):
                continue
            if kind == "measure" or pure and (kind == "reset" or kind == "channel" and len(step[2].kraus) > 1):
                rows = (_unravel(step, br.state) if pure
                        else enumerate(apply_local_measurement(br.state, step[2], step[1], d, n)) for br in branches)
                wire = step[3] if kind == "measure" else None
                branches, exact = _branch_measure(branches, rows, wire, branch_limit, rng, exact, D, pure)
            else:
                for br in branches:
                    br.state = act(step, br.state, d, n)
    if pure:
        for br in branches:
            br.state = br.state.reshape(D)
    return branches, exact


def _act_dense(step, rho, d, n):
    kind = step[0]
    if kind == "weyl":
        return step[1].conjugate_matrix(rho)
    if kind == "gate":
        return apply_local_kraus(rho, (step[2],), step[1], d, n)
    if kind == "channel":
        return apply_local_channel(rho, step[2], step[1], d, n)
    if kind == "reset":
        return reset_sites(rho, step[1], step[2], d, n)
    raise EvaluationError(f"unknown step {kind!r}")


def _act_pure(step, psi, d, n):
    if step[0] == "weyl":
        return step[1].apply_to_vector(psi.reshape(-1)).reshape(psi.shape)
    positions, op = step[1:3]
    return _on_footprint(op if step[0] == "gate" else op.kraus[0], psi, positions)


def _check_stack(count, D, pure):
    """The evaluator's budget on count branches: count D entries (pure) or count D^2 (dense)."""
    per = D if pure else D * D
    check_budget(count * per, "{} {} of dimension {} need {} bytes, over those of a density matrix at the dense cap",
                 count, "pure states" if pure else "density matrices", D, 16 * count * per)


def _unravel(step, psi):
    """(outcome, unnormalised pure state) of each branch a splitting step makes of psi;
    the outcome is None for an unrecorded split (a reset, or a Kraus form)."""
    kind, positions, ops = step[:3]
    if kind == "reset":
        for row in _footprint_rows(psi, positions):
            if row.any():
                yield None, _from_footprint_rows(np.multiply.outer(ops, row), positions, psi.shape)
    elif ops is None:
        (site,) = positions
        digit = np.arange(psi.shape[site]).reshape((-1,) + (1,) * (psi.ndim - site - 1))
        for m in range(psi.shape[site]):
            yield m, np.where(digit == m, psi, 0)
    elif kind == "channel":
        for K in ops.kraus:
            yield None, _on_footprint(K, psi, positions)
    else:
        rows = _footprint_rows(psi, positions)
        for b, (V, sizes) in enumerate(ops):
            A = V.conj().T @ rows
            for lo, hi in itertools.pairwise(itertools.accumulate(sizes, initial=0)):
                yield b, _from_footprint_rows(V[:, lo:hi] @ A[lo:hi], positions, psi.shape)


def _branch_measure(branches, outcome_rows, wire, branch_limit, rng, exact, D, pure):
    kept, total, drawn = [], 0, 0
    for rows in outcome_rows:
        weighed = ((m, float((np.vdot(v, v) if pure else np.trace(v)).real), v) for m, v in rows)
        kept.append([row for row in weighed if row[1] > 1e-14])
        total += len(kept[-1])
        if total > branch_limit:
            if rng is None:
                raise EvaluationError(
                    f"branch limit {branch_limit} exceeded; pass an rng for the sampling fallback"
                )
            for j in range(drawn, len(kept)):
                ps = np.array([p for _, p, _ in kept[j]])
                kept[j] = [kept[j][rng.choice(len(ps), p=ps / ps.sum())]]
            drawn = len(kept)
        _check_stack(drawn or total, D, pure)
    new = []
    for br, rows in zip(branches, kept):
        for m, p, sub in rows:
            state = np.divide(sub, np.sqrt(p) if pure else p, out=sub)
            record = dict(br.record) if wire is None else {**br.record, wire: m}
            new.append(Branch(br.probability if drawn else br.probability * p, state, record))
    return new, exact and not drawn
