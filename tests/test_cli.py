"""Command-line runner, instance generators, and JSON serialization."""

import importlib
import itertools
import json
import os
import pkgutil
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import prodstate
from prodstate import oracle, serialize
from prodstate.bruteforce import best_product_fidelity
from prodstate.cli import ExperimentConfig, UsageError, generate, main, run
from prodstate.discrete import DiscreteClass
from prodstate.hardness import Tensor4, clique_tensor
from prodstate.instances import Graph, planted_mixture, random_mixed
from prodstate.mps import mps_to_state, state_to_mps
from prodstate.serialize import (
    canonical_dumps,
    class_from_json,
    class_to_json,
    digest,
    load_json,
    loads_json,
    mps_to_json,
    params_from_json,
    params_to_json,
    save_json,
    state_from_json,
    state_to_json,
    tensor_from_json,
    tensor_to_json,
)
from prodstate.states import (
    QuantumState,
    fidelity,
    haar_product_params,
    haar_state,
    vector_fidelity,
)

from conftest import (
    decode_mps,
    density,
    ghz_state,
    reference_block,
    reference_pairs,
    reference_unblock,
    reference_unpairs,
)


# ---------------------------------------------------------------------------
# serialization round trips


SPECIAL_VALUES = np.array([-0.0, complex(0.0, -0.0), complex(-0.0, -0.0), 5e-324,
                           complex(-5e-324, 2.2e-309), complex(1e-310, -0.0)])


def test_state_round_trip_pure_and_mixed():
    rng = np.random.default_rng(0)
    pure = ghz_state(3)
    back = state_from_json(state_to_json(pure))
    assert back.kind == "pure" and back.n == 3
    assert np.allclose(back.data, pure.data, atol=1e-12)

    mixed = random_mixed(2, rng)
    back = state_from_json(state_to_json(mixed))
    assert back.kind == "mixed"
    assert np.allclose(back.data.factor, mixed.data.factor, atol=1e-12)
    assert back.data.shift == mixed.data.shift


def test_state_files_must_hold_normalized_qubit_registers():
    good = state_to_json(ghz_state(1))
    assert state_from_json(good).n == 1
    # A format-1 file: the fixed keys and the amplitudes as [re, im] pairs.
    old = {**good, "local_dim": 2, "normalized": True, "data": [[0.6, 0.0], [0.8, 0.0]]}
    with pytest.raises(ValueError, match="format_version 1.*prodstate gen"):
        loads_json(json.dumps({"format_version": 1, "state": old}).encode())
    # A block of three amplitudes is no register of n = 1 qubits.
    qutrit = {**good, "data": reference_block(np.array([1.0, 0.0, 0.0]))}
    with pytest.raises(ValueError, match="state data block: shape \\[3\\] disagrees with n = 1"):
        state_from_json(qutrit)
    with pytest.raises(ValueError, match="not normalized"):
        state_from_json({**good, "data": reference_block(np.array([1.0, 1.0]))})


def test_factored_state_round_trip_is_exact():
    rng = np.random.default_rng(5)
    states = [random_mixed(3, rng, rank=2), planted_mixture(haar_product_params(rng, 4), 0.9)]
    for n in range(1, 13):
        states += [QuantumState.pure(haar_state(2**n, rng)),
                   random_mixed(n, rng, rank=1),
                   random_mixed(n, rng, rank=2),
                   planted_mixture(haar_product_params(rng, n), 0.9)]
    for state in states:
        d = state_to_json(state)
        back = state_from_json(json.loads(canonical_dumps(d)))
        assert back.kind == state.kind
        if state.kind == "pure":
            assert np.array_equal(back.data, state.data)
            continue
        assert "data" not in d
        assert d["factor"]["shape"] == list(state.data.factor.shape)
        assert np.array_equal(back.data.factor, state.data.factor)
        assert back.data.shift == state.data.shift
    for side in range(1, 7):
        noise = rng.standard_normal(side**4) + 1j * rng.standard_normal(side**4)
        t = Tensor4(np.concatenate([SPECIAL_VALUES, noise])[: side**4].reshape((side,) * 4))
        back = tensor_from_json(json.loads(canonical_dumps(tensor_to_json(t))))
        assert np.array_equal(back.entries, t.entries)
    train = state_to_mps(ghz_state(3))
    back = decode_mps(json.loads(canonical_dumps(mps_to_json(train))))
    assert all(np.array_equal(a, b) for a, b in zip(back.tensors, train.tensors, strict=True))


def test_pair_codec_matches_reference_bytes(monkeypatch):
    rng = np.random.default_rng(6)
    values = np.concatenate([SPECIAL_VALUES,
                             rng.standard_normal(18) + 1j * rng.standard_normal(18)])
    for arr in (values, values.reshape(4, 6), values.reshape(2, 3, 4)):
        text = canonical_dumps(serialize._pairs(arr))
        assert text == canonical_dumps(reference_pairs(arr))
        pairs = json.loads(text)
        assert serialize._unpairs(pairs, arr.shape).tobytes() == arr.tobytes()
        assert reference_unpairs(pairs, arr.shape).tobytes() == arr.tobytes()
    menus = [[np.array([1, -0.0], dtype=complex), np.array([0.6, 0.8j])]] * 2
    objects = [(class_to_json, DiscreteClass(menus)),
               (params_to_json, haar_product_params(rng, 3))]
    texts = [canonical_dumps(encode(x)) for encode, x in objects]
    monkeypatch.setattr(serialize, "_pairs", reference_pairs)
    assert [canonical_dumps(encode(x)) for encode, x in objects] == texts


def test_block_codec_matches_reference_bytes(monkeypatch):
    rng = np.random.default_rng(6)
    values = np.concatenate([SPECIAL_VALUES,
                             rng.standard_normal(18) + 1j * rng.standard_normal(18)])
    for arr in (values, values.reshape(4, 6), values.reshape(2, 3, 4), values.reshape(6, 4).T):
        text = canonical_dumps(serialize._block(arr))
        assert text == canonical_dumps(reference_block(arr))
        block = json.loads(text)
        assert serialize._unblock(block, "test").tobytes() == np.ascontiguousarray(arr).tobytes()
        assert reference_unblock(block).tobytes() == np.ascontiguousarray(arr).tobytes()
    objects = [(state_to_json, random_mixed(2, rng)),
               (state_to_json, random_mixed(2, rng, rank=1)),
               (state_to_json, ghz_state(3)),
               (mps_to_json, state_to_mps(ghz_state(3))),
               (tensor_to_json, clique_tensor(Graph(3, frozenset({(0, 1)}))))]
    texts = [canonical_dumps(encode(x)) for encode, x in objects]
    monkeypatch.setattr(serialize, "_block", reference_block)
    assert [canonical_dumps(encode(x)) for encode, x in objects] == texts


def test_malformed_blocks_are_refused_naming_the_object():
    good = state_to_json(ghz_state(2))
    block = good["data"]
    cases = (({**block, "dtype": "complex64-le"}, "dtype 'complex64-le'"),
             ({**block, "base64": block["base64"][:-2] + "*="}, "invalid base64"),
             ({**block, "base64": block["base64"][:-24]}, "48 bytes for shape \\[4\\], want 64"),
             ({**block, "shape": [8]}, "shape \\[8\\] disagrees with n = 2"))
    for bad, message in cases:
        with pytest.raises(ValueError, match=f"^state data block: {message}"):
            state_from_json({**good, "data": bad})
    mixed = state_to_json(random_mixed(2, np.random.default_rng(3)))
    with pytest.raises(ValueError, match="^state factor block: shape \\[4\\] disagrees"):
        state_from_json({**mixed, "factor": {**mixed["factor"], "shape": [4]}})
    tensor = tensor_to_json(clique_tensor(Graph(2, frozenset({(0, 1)}))))
    with pytest.raises(ValueError, match="^tensor4 block: invalid base64"):
        tensor_from_json({**tensor, "data": {**tensor["data"], "base64": "not base64!"}})
    with pytest.raises(ValueError, match="^tensor4 block: shape .* disagrees with side 3"):
        tensor_from_json({**tensor, "side": 3})


def test_params_round_trip_exact():
    rng = np.random.default_rng(1)
    p = haar_product_params(rng, 5)
    assert params_from_json(params_to_json(p)).z == p.z


def test_tensor_round_trip():
    t = clique_tensor(Graph(3, frozenset({(0, 1), (1, 2), (0, 2)})))
    back = tensor_from_json(tensor_to_json(t))
    assert np.array_equal(back.entries, t.entries)


def test_class_round_trip_keeps_gamma():
    menus = [[np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)]] * 2
    cls = DiscreteClass(menus, gamma=0.5)
    back = class_from_json(class_to_json(cls))
    assert back.n == cls.n and back.s == cls.s
    assert back.gamma == pytest.approx(cls.gamma, abs=1e-15)


def test_digest_tracks_payload():
    assert digest({"a": 1.0}) == digest({"a": 1.0})
    assert digest({"a": 1.0}) != digest({"a": 1.5})


def test_save_load_versioned(tmp_path):
    path = tmp_path / "payload.json"
    save_json(path, {"x": 1})
    data = load_json(path)
    assert data["format_version"] == 2 and data["x"] == 1
    path.write_text(json.dumps({"format_version": 999, "x": 1}))
    with pytest.raises(ValueError):
        load_json(path)


def test_canonical_dumps_is_stable():
    a = canonical_dumps({"b": 2, "a": [1.0, 2.0]})
    b = canonical_dumps({"a": [1.0, 2.0], "b": 2})
    assert a == b and a.endswith("\n")


def test_float_round_trip_through_json():
    values = np.random.default_rng(3).standard_normal(64)
    text = canonical_dumps({"v": list(values)})
    assert np.array_equal(np.array(json.loads(text)["v"]), values)


# ---------------------------------------------------------------------------
# generators


def test_planted_product_pure_opt_is_one():
    payload = generate("planted-product", {"n": 3, "w": 1.0}, seed=4)
    assert payload["state"]["kind"] == "pure"
    assert payload["ground_truth"]["opt"] == 1.0


def test_planted_product_opt_matches_grid_oracle():
    payload = generate("planted-product", {"n": 3, "w": 0.9}, seed=5)
    state = state_from_json(payload["state"])
    oracle_fid, _ = best_product_fidelity(state, restarts=8, seed=0)
    assert abs(payload["ground_truth"]["opt"] - oracle_fid) <= 1e-3


def test_planted_product_noise_shrinks_weight():
    payload = generate("planted-product", {"n": 2, "w": 1.0, "noise": 0.05}, seed=6)
    assert payload["ground_truth"]["opt"] == pytest.approx(0.95 + 0.05 / 4, abs=1e-12)
    assert payload["state"]["kind"] == "mixed"


def test_clique_generator_k3_entry_count():
    payload = generate("clique", {"edges": [[0, 1], [1, 2], [0, 2]]}, seed=0)
    entries = tensor_from_json(payload["tensor"]).entries
    nonzero = entries[entries != 0]
    assert nonzero.size == 12
    assert np.all(nonzero == 0.5)
    assert payload["ground_truth"]["clique_number"] == 3


def test_clique_generator_attaches_a_state_within_the_dense_budget():
    small = generate("clique", {"edges": [[0, 1], [1, 2]]}, seed=0)
    assert state_from_json(small["state"]).n == 12
    # Side 6 would need 2^24 amplitudes (256 MiB): the file keeps only the tensor.
    big = generate("clique", {"edges": [[0, 1], [4, 5]]}, seed=0)
    assert "state" not in big and tensor_from_json(big["tensor"]).side == 6


def test_planted_mps_ground_truth_reachable():
    payload = generate("planted-mps", {"n": 4, "rank": 2, "w": 1.0}, seed=7)
    state = state_from_json(payload["state"])
    train = decode_mps(payload["ground_truth"]["planted_mps"])
    overlap = abs(np.vdot(mps_to_state(train).data, state.data)) ** 2
    assert overlap == pytest.approx(payload["ground_truth"]["opt"], abs=1e-9)


def test_clique_generator_builds_no_object_per_amplitude():
    edges = [list(e) for e in itertools.combinations(range(4), 2)]
    tracemalloc.start()
    try:
        payload = generate("clique", {"edges": edges}, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert payload["state"]["data"]["shape"] == [2**16]
    # Pairs lists took about ten times the 16 * 2^16 bytes of the amplitudes.
    assert peak < 5 * 16 * 2**16


def test_planted_product_set_up_stays_factored():
    tracemalloc.start()
    try:
        payload = generate("planted-product", {"n": 10, "w": 0.95, "noise": 0.05}, seed=1)
        state = state_from_json(payload["state"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20  # a dense 2^10 x 2^10 rho alone takes 16 MiB
    assert state.kind == "mixed" and state.data.trace() == pytest.approx(1.0, abs=1e-12)


def test_planted_mixtures_are_stored_factored():
    cases = (("planted-product", {"n": 3, "w": 0.9}, 1),
             ("planted-mps", {"n": 4, "rank": 2, "w": 0.8}, 1),
             ("planted-discrete", {"n": 3, "s": 2, "w": 0.7}, 1),
             ("random-mixed", {"n": 3, "rank": 2}, 2))
    for kind, params, rank in cases:
        payload = generate(kind, params, seed=5)
        d = payload["state"]
        assert d["kind"] == "mixed" and "data" not in d
        assert d["factor"]["shape"] == [2 ** params["n"], rank]
        if kind == "planted-mps":
            train = decode_mps(payload["ground_truth"]["planted_mps"])
            fid = vector_fidelity(state_from_json(d), mps_to_state(train).data)
            assert fid == pytest.approx(payload["ground_truth"]["opt"], abs=1e-12)


def test_planted_discrete_member_is_optimal():
    payload = generate("planted-discrete", {"n": 2, "s": 3, "w": 0.9}, seed=8)
    from prodstate.discrete import member_vector

    cls = class_from_json(payload["class"])
    state = state_from_json(payload["state"])
    member = tuple(payload["ground_truth"]["member"])
    vec = member_vector(cls, member)
    achieved = float(np.real(np.vdot(vec, state.data @ vec)))
    assert achieved == pytest.approx(payload["ground_truth"]["opt"], abs=1e-9)


def test_generator_determinism():
    a = generate("planted-mps", {"n": 3, "rank": 2, "w": 0.9}, seed=9)
    b = generate("planted-mps", {"n": 3, "rank": 2, "w": 0.9}, seed=9)
    assert canonical_dumps(a) == canonical_dumps(b)
    c = generate("planted-mps", {"n": 3, "rank": 2, "w": 0.9}, seed=10)
    assert canonical_dumps(a) != canonical_dumps(c)


def test_generator_rejects_bad_params():
    with pytest.raises(ValueError):
        generate("planted-product", {"n": 0, "w": 1.0})
    with pytest.raises(ValueError):
        generate("planted-product", {"n": 2, "w": 1.5})
    with pytest.raises(ValueError):
        generate("no-such-kind", {})
    with pytest.raises(UsageError):
        generate("random-mixed", {"n": 2, "rank": 0})
    planted = (("planted-product", {"n": 2, "w": 0.5}),
               ("planted-mps", {"n": 3, "rank": 2, "w": 0.5}),
               ("planted-discrete", {"n": 2, "s": 2, "w": 0.5}))
    for (kind, params), noise in itertools.product(planted, (-0.5, 1.5)):
        with pytest.raises(UsageError):
            generate(kind, {**params, "noise": noise})


# ---------------------------------------------------------------------------
# experiment configs


def test_config_validates_ranges():
    with pytest.raises(UsageError):
        ExperimentConfig(algorithm="cover", eta=1.5)
    with pytest.raises(UsageError):
        ExperimentConfig(algorithm="highfid", eps=0.0)
    with pytest.raises(UsageError):
        ExperimentConfig(algorithm="highfid", backend="quantum")
    with pytest.raises(UsageError):
        ExperimentConfig(algorithm="teleport")


# ---------------------------------------------------------------------------
# main() exit codes and spec'd examples


def _gen(tmp_path, name, *args):
    path = tmp_path / name
    assert main(["gen", *args, "--out", str(path)]) == 0
    return str(path)


def test_highfid_on_noisy_planted_product(tmp_path):
    inst = _gen(tmp_path, "pp.json", "planted-product", "--n", "4",
                "--noise", "0.05", "--seed", "3")
    out = tmp_path / "report.json"
    assert main(["highfid", str(inst), "--eps", "0.1", "--out", str(out)]) == 0
    report = load_json(out)
    opt = report["result"]["opt"]
    assert report["fidelity"] >= opt - 0.1
    assert report["result"]["meets_opt_minus_eps"] is True
    assert report["copies_consumed"] > 0
    assert report["input_digest"]
    assert "wall_seconds" in report["timing"]


def test_highfid_end_to_end_at_sixteen_qubits(tmp_path):
    inst = _gen(tmp_path, "pp16.json", "planted-product", "--n", "16", "--w", "0.95",
                "--noise", "0.05")
    out = tmp_path / "report.json"
    assert main(["highfid", inst, "--out", str(out)]) == 0
    report = load_json(out)
    assert report["fidelity"] >= report["result"]["opt"] - 0.1
    assert report["result"]["meets_opt_minus_eps"] is True


def test_sampling_highfid_meets_opt_at_four_qubits(tmp_path):
    # The final certification's deepest estimate_z rung at eps 0.1 fits
    # under SHOT_BUDGET with the Bernstein count.
    inst = _gen(tmp_path, "pp.json", "planted-product", "--n", "4", "--w", "0.95",
                "--noise", "0.05")
    out = tmp_path / "report.json"
    assert main(["highfid", inst, "--backend", "sampling", "--eps", "0.1", "--delta", "0.1",
                 "--out", str(out)]) == 0
    assert load_json(out)["result"]["meets_opt_minus_eps"] is True


def test_sampling_estimate_opt_runs_at_the_default_tomography_accuracy(tmp_path):
    # Every prefix tomography at tomo_eps = eps/8 fits under SHOT_BUDGET, and
    # so does the whole run.
    inst = _gen(tmp_path, "pp.json", "planted-product", "--n", "3", "--w", "0.95",
                "--noise", "0.05")
    out = tmp_path / "report.json"
    assert main(["cover", "estimate-opt", inst, "--backend", "sampling",
                 "--out", str(out)]) == 0
    assert 0 < load_json(out)["copies_consumed"] < oracle.SHOT_BUDGET


def test_legacy_dense_instance_files_are_refused(tmp_path, capsys):
    inst = _gen(tmp_path, "pp.json", "planted-product", "--n", "4", "--noise", "0.05",
                "--seed", "3")
    data = load_json(inst)
    state = state_from_json(data.pop("state"))
    # The legacy dense form: the density matrix as a 2^n x 2^n "data" block.
    legacy = {k: v for k, v in state_to_json(state).items() if k not in ("factor", "shift")}
    legacy["data"] = reference_block(density(state))
    dense = tmp_path / "dense.json"
    save_json(dense, {**data, "state": legacy})
    capsys.readouterr()
    assert main(["highfid", str(dense), "--out", str(tmp_path / "report.json")]) == 1
    assert "factor form" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_dense_state_above_budget_exits_two(tmp_path, capsys):
    assert main(["gen", "random-mixed", "--n", "12", "--out", str(tmp_path / "x.json")]) == 2
    assert "budget" in capsys.readouterr().err


def test_invalid_eta_exits_one(tmp_path, capsys):
    inst = _gen(tmp_path, "pp.json", "planted-product", "--n", "2")
    assert main(["cover", "build", inst, "--eta", "1.5"]) == 1
    assert "eta" in capsys.readouterr().err
    # A flag the subcommand does not read is a usage error, not silently dropped.
    assert main(["hardness", "check", inst, "--eps", "0.1"]) == 1
    assert "--eps" in capsys.readouterr().err
    assert main(["highfid", inst, "--eta", "0.5"]) == 1
    assert "--eta" in capsys.readouterr().err


def test_mps_learn_above_dense_budget_exits_two(tmp_path, capsys):
    # At desk eps the guarantee-level window spans the whole register, so the
    # one tomography returns the whole 2^12 x 2^12 block (256 MiB).
    inst = _gen(tmp_path, "pm.json", "planted-mps", "--n", "12")
    assert main(["mps", "learn", inst, "--rank", "2"]) == 2
    assert "budget" in capsys.readouterr().err


def test_mps_learn_with_a_narrow_window_at_sixteen_qubits(tmp_path):
    inst = _gen(tmp_path, "pm.json", "planted-mps", "--n", "16")
    out = tmp_path / "report.json"
    assert main(["mps", "learn", inst, "--rank", "2", "--kappa", "3", "--out", str(out)]) == 0
    assert load_json(out)["result"]["meets_opt_minus_eps"] is True
    assert main(["mps", "learn", inst, "--kappa", "0"]) == 1


def test_gen_refuses_flags_its_kind_does_not_read(tmp_path, capsys):
    out = str(tmp_path / "x.json")
    for argv in (["planted-product", "--n", "3", "--rank", "4"],
                 ["planted-product", "--s", "7"],
                 ["planted-discrete", "--rank", "2"],
                 ["random-mixed", "--w", "0.5"],
                 ["clique", "--graph", "[[0,1]]", "--n", "9"],
                 ["clique", "--graph", "[[0,1]]", "--noise", "0.5"]):
        assert main(["gen", *argv, "--out", out]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
    # The instance file records exactly the params its kind reads.
    expected = {"planted-product": {"n": 3, "noise": 0.0, "w": 1.0},
                "planted-mps": {"n": 3, "noise": 0.0, "rank": 2, "w": 1.0},
                "planted-discrete": {"n": 3, "noise": 0.0, "s": 2, "w": 1.0},
                "random-mixed": {"n": 3, "rank": None}}
    for kind, params in expected.items():
        assert load_json(_gen(tmp_path, f"{kind}.json", kind))["params"] == params
    clique = load_json(_gen(tmp_path, "k2.json", "clique", "--graph", "[[0,1]]"))
    assert clique["params"] == {"edges": [[0, 1]], "vertices": None}


def test_clique_with_zero_vertices_exits_one(tmp_path, capsys):
    # An explicit 0 reaches Graph, which refuses it, instead of falling
    # back to the vertex count the edges imply.
    out = tmp_path / "k.json"
    assert main(["gen", "clique", "--graph", "[[0,1]]", "--vertices", "0",
                 "--out", str(out)]) == 1
    assert "vertex" in capsys.readouterr().err
    assert not out.exists()


def test_clique_without_vertices_infers_them_from_the_edges(tmp_path):
    clique = load_json(_gen(tmp_path, "k.json", "clique", "--graph", "[[0,2]]"))
    assert clique["graph"]["n_vertices"] == 3
    assert clique["params"]["vertices"] is None
    wide = load_json(_gen(tmp_path, "k5.json", "clique", "--graph", "[[0,2]]",
                          "--vertices", "5"))
    assert wide["graph"]["n_vertices"] == 5


def test_polyopt_zero_budget_exits_one(capsys):
    # A budget below one point is a usage error, not a budget the solver
    # then exceeds.
    assert main(["polyopt", "solve", "--n", "3", "--net-budget", "0"]) == 1
    assert "net_budget" in capsys.readouterr().err


def test_polyopt_tiny_budget_exits_two(capsys):
    assert main(["polyopt", "solve", "--n", "6", "--net-budget", "10"]) == 2
    assert "budget" in capsys.readouterr().err


def test_out_of_range_cover_knobs_exit_one(tmp_path, capsys):
    inst = _gen(tmp_path, "pp.json", "planted-product", "--n", "4", "--w", "0.95",
                "--seed", "3")
    for cap in ("-1", "0"):
        assert main(["cover", "estimate-opt", inst, "--degree-cap", cap]) == 1
        assert "degree_cap" in capsys.readouterr().err
    # The cover search has no grid budget: the flag is refused as unknown.
    for mode in ("build", "estimate-opt"):
        assert main(["cover", mode, inst, "--net-budget", "10"]) == 1
        assert "--net-budget" in capsys.readouterr().err


def test_state_files_outside_the_model_exit_one(tmp_path, capsys):
    inst = _gen(tmp_path, "pp.json", "planted-product", "--n", "1", "--w", "1.0")
    data = load_json(inst)
    # A format-1 file: the fixed keys, the amplitudes as [re, im] pairs.
    old = {**data["state"], "local_dim": 2, "normalized": True,
           "data": reference_pairs(reference_unblock(data["state"]["data"]))}
    path = tmp_path / "v1.json"
    path.write_text(canonical_dumps({**data, "format_version": 1, "state": old}))
    assert main(["highfid", str(path)]) == 1
    assert "format_version 1" in capsys.readouterr().err
    # A block of three amplitudes is no register of n = 1 qubits.
    three = {**data["state"], "data": reference_block(np.array([1.0, 0.0, 0.0]))}
    path = tmp_path / "qutrit.json"
    save_json(path, {**data, "state": three})
    assert main(["highfid", str(path)]) == 1
    assert "shape [3] disagrees with n = 1" in capsys.readouterr().err


def test_instance_missing_a_key_names_the_object_and_key(tmp_path, capsys):
    inst = _gen(tmp_path, "pp.json", "planted-product", "--n", "1")
    data = load_json(inst)
    state = {k: v for k, v in data["state"].items() if k != "kind"}
    path = tmp_path / "no-kind.json"
    save_json(path, {**data, "state": state})
    assert main(["highfid", str(path)]) == 1
    assert "malformed state object: missing key 'kind'" in capsys.readouterr().err
    # An instance with no state at all (clique instances above side 5).
    save_json(path, {k: v for k, v in data.items() if k != "state"})
    assert main(["highfid", str(path)]) == 1
    assert "highfid needs an instance with a state" in capsys.readouterr().err


def test_sampling_backend_with_noise_exits_one(tmp_path, capsys):
    inst = _gen(tmp_path, "pp.json", "planted-product", "--n", "1")
    assert main(["highfid", inst, "--backend", "sampling", "--noise", "0.3"]) == 1
    assert "exact backend" in capsys.readouterr().err
    assert main(["highfid", inst, "--backend", "exact", "--noise", "0.3",
                 "--out", str(tmp_path / "r.json")]) == 0


def test_missing_instance_exits_one(tmp_path, capsys):
    assert main(["highfid", str(tmp_path / "absent.json")]) == 1
    capsys.readouterr()


def test_unknown_subcommand_exits_one(capsys):
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_report_determinism_same_config(tmp_path):
    inst = _gen(tmp_path, "pp.json", "planted-product", "--n", "3",
                "--w", "0.9", "--seed", "7")
    out = tmp_path / "report.json"
    argv = ["highfid", inst, "--seed", "4", "--eps", "0.1", "--out", str(out)]
    assert main(argv) == 0
    first = json.loads(out.read_text())
    assert main(argv) == 0
    second = json.loads(out.read_text())
    first.pop("timing")
    second.pop("timing")
    assert canonical_dumps(first) == canonical_dumps(second)


def test_run_report_shape(tmp_path):
    inst = _gen(tmp_path, "pp.json", "planted-product", "--n", "2", "--seed", "1")
    config = ExperimentConfig(algorithm="highfid", instance=inst, eps=0.1)
    report = run(config)
    assert report["algorithm"] == "highfid"
    assert report["config"]["delta"] == 0.1  # defaults are materialized
    assert set(report) >= {"input_digest", "seeds", "result", "fidelity",
                           "copies_consumed", "timing"}


def test_cli_discrete_learn(tmp_path):
    inst = _gen(tmp_path, "pd.json", "planted-discrete", "--n", "2", "--s", "3",
                "--seed", "11")
    out = tmp_path / "report.json"
    assert main(["discrete", "learn", inst, "--eta", "0.8", "--eps", "0.2",
                 "--out", str(out)]) == 0
    report = load_json(out)
    assert report["result"]["count"] >= 1
    assert report["fidelity"] >= 0.99


def test_cli_mps_learn(tmp_path):
    inst = _gen(tmp_path, "pm.json", "planted-mps", "--n", "4", "--rank", "2",
                "--seed", "5")
    out = tmp_path / "report.json"
    assert main(["mps", "learn", inst, "--rank", "2", "--eps", "0.2",
                 "--out", str(out)]) == 0
    report = load_json(out)
    assert report["fidelity"] >= 0.8
    assert max(report["result"]["bond_dims"]) <= 8


def test_cli_cover_build_and_round_trip(tmp_path):
    inst = _gen(tmp_path, "pp.json", "planted-product", "--n", "2", "--seed", "9")
    out = tmp_path / "report.json"
    assert main(["cover", "build", inst, "--eta", "0.8", "--eps", "0.2",
                 "--out", str(out)]) == 0
    report = load_json(out)
    cover = report["result"]["cover"]
    assert cover["m"] == 2  # covers the full two-site register
    assert 1 <= len(cover["members"]) <= 6 / 0.8 + 1e-9
    assert cover["overrides"] == {"degree_cap": None, "tomo_eps": None}
    for stored in cover["members"]:
        member = params_from_json(stored)
        assert member.n == 2
        assert params_to_json(member) == stored


def test_cli_estimate_opt_pure_product(tmp_path):
    inst = _gen(tmp_path, "pp.json", "planted-product", "--n", "2", "--seed", "9")
    out = tmp_path / "report.json"
    assert main(["cover", "estimate-opt", inst, "--eps", "0.05",
                 "--out", str(out)]) == 0
    report = load_json(out)
    assert report["result"]["estimate"] >= 1 - 0.1
    assert report["fidelity"] >= 1 - 0.1


def test_cli_estimate_opt_with_a_witness_on_the_parameter_cap(tmp_path):
    # This state's cover search recenters a member onto |z| = Z_MAX, where
    # rounding once put |z| one ulp above the cap and the run exited 1.
    inst = _gen(tmp_path, "rm.json", "random-mixed", "--n", "3", "--rank", "2",
                "--seed", "1014")
    assert main(["cover", "estimate-opt", inst, "--eps", "0.1", "--delta", "0.1",
                 "--out", str(tmp_path / "report.json")]) == 0


def test_cli_polyopt_solve_feasible(tmp_path):
    out = tmp_path / "report.json"
    assert main(["polyopt", "solve", "--n", "4", "--seed", "1",
                 "--out", str(out)]) == 0
    report = load_json(out)
    assert report["result"]["feasible"] is True
    assert report["result"]["in_slack_domain"] is True
    assert report["result"]["value"] > 0


def test_cli_polyopt_default_budget_solves_the_benchmark_systems(tmp_path):
    # The default budget is the library's, so the n = 6 system the benchmark
    # solves (2,126,125 raw grid points) is answered, not refused.
    out = tmp_path / "report.json"
    assert main(["polyopt", "solve", "--n", "6", "--out", str(out)]) == 0
    result = load_json(out)["result"]
    assert result["feasible"] is True and result["in_slack_domain"] is True


def test_cli_hardness_gen_and_check(tmp_path):
    inst = _gen(tmp_path, "k2.json", "clique", "--graph", "[[0,1]]")
    out = tmp_path / "report.json"
    assert main(["hardness", "check", inst, "--out", str(out)]) == 0
    report = load_json(out)
    assert report["result"]["spectral_norm"] == pytest.approx(0.5, abs=1e-6)
    assert report["result"]["clique_number"] == 2
    assert report["result"]["sandwich"]["holds"] is True


def test_cli_hardness_gen_rejects_bad_graph(tmp_path, capsys):
    assert main(["gen", "clique", "--graph", "not json",
                 "--out", str(tmp_path / "x.json")]) == 1
    assert "edge list" in capsys.readouterr().err
    # The clique instances come from `gen clique` alone.
    assert main(["hardness", "gen", "--graph", "[[0,1]]",
                 "--out", str(tmp_path / "x.json")]) == 1
    assert "invalid choice: 'gen'" in capsys.readouterr().err


def test_instance_files_embed_ground_truth(tmp_path):
    inst = _gen(tmp_path, "pp.json", "planted-product", "--n", "3", "--w", "0.9",
                "--seed", "2")
    data = load_json(inst)
    assert data["kind"] == "planted-product"
    assert "planted" in data["ground_truth"]
    planted = params_from_json(data["ground_truth"]["planted"])
    state = state_from_json(data["state"])
    assert fidelity(state, planted) == pytest.approx(data["ground_truth"]["opt"],
                                                     abs=1e-12)


def test_log_env_variable_sets_level(tmp_path, monkeypatch, caplog):
    inst = _gen(tmp_path, "pp.json", "planted-product", "--n", "2")
    monkeypatch.setenv("PRODSTATE_LOG", "INFO")
    import logging

    with caplog.at_level(logging.INFO, logger="prodstate.cli"):
        assert main(["highfid", inst, "--out", str(tmp_path / "r.json")]) == 0
    assert any("running highfid" in m for m in caplog.messages)


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    fid, copies = capsys.readouterr().out.split()
    assert float(fid) > 0.9 and int(copies) > 0


def test_every_public_name_resolves():
    modules = [prodstate] + [importlib.import_module(f"prodstate.{info.name}")
                             for info in pkgutil.iter_modules(prodstate.__path__)]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name}"


def test_runtime_imports_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests alone.
    src = str(Path(prodstate.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = ("import sys, prodstate, prodstate.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
