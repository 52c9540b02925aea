from pathlib import Path

import pytest

from oracles import csr_rows
from pcosync.core import ModelParams
from pcosync.dtmc import build_dtmc
from pcosync.export import (
    export_model,
    read_states,
    read_transitions,
    write_transition_rewards,
)

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def tiny_model():
    return build_dtmc(ModelParams(n=2, t=2, r=1, epsilon=0.1, mu=0.0))


@pytest.fixture(scope="module")
def medium_model():
    return build_dtmc(ModelParams(n=4, t=5, r=1, epsilon=0.1, mu=0.2))


class TestGoldenFiles:
    def test_byte_for_byte(self, tiny_model, tmp_path):
        paths = export_model(tiny_model, tmp_path / "n2t2mu0")
        for path in paths.values():
            golden = GOLDEN / path.name
            assert path.read_bytes() == golden.read_bytes(), path.name


class TestRoundTrip:
    def test_states(self, medium_model, tmp_path):
        paths = export_model(medium_model, tmp_path / "m")
        assert tuple(read_states(paths["states"])) == medium_model.states

    def test_transition_counts(self, medium_model, tmp_path):
        paths = export_model(medium_model, tmp_path / "m")
        n_states, triples = read_transitions(paths["transitions"])
        assert n_states == medium_model.n_states
        assert len(triples) == medium_model.n_transitions

    def test_probabilities_lossless(self, medium_model, tmp_path):
        paths = export_model(medium_model, tmp_path / "m")
        _, triples = read_transitions(paths["transitions"])
        expected = {
            (src, target): prob
            for src, row in enumerate(csr_rows(medium_model))
            for target, prob, _, _ in row
        }
        for src, dst, prob in triples:
            assert prob == expected[(src, dst)]  # 17 digits survive re-parsing

    def test_reparsed_matrix_is_row_stochastic(self, medium_model, tmp_path):
        paths = export_model(medium_model, tmp_path / "m")
        _, triples = read_transitions(paths["transitions"])
        sums: dict[int, float] = {}
        for src, _, prob in triples:
            sums[src] = sums.get(src, 0.0) + prob
        assert set(sums) == set(range(medium_model.n_states))
        for total in sums.values():
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_declared_count_mismatch_rejected(self, tmp_path):
        bad = tmp_path / "bad.tra"
        bad.write_text("2 5\n0 1 1\n")
        with pytest.raises(ValueError):
            read_transitions(bad)


class TestRewardFiles:
    def test_unknown_kind_rejected(self, tiny_model, tmp_path):
        with pytest.raises(ValueError):
            write_transition_rewards(tiny_model, tmp_path / "x.trew", "entropy")

    def test_reward_lines_align_with_transitions(self, medium_model, tmp_path):
        paths = export_model(medium_model, tmp_path / "m")
        _, triples = read_transitions(paths["transitions"])
        for kind in ("time_rewards", "power_rewards"):
            lines = paths[kind].read_text().strip().splitlines()
            assert len(lines) == len(triples)
            for line, (src, dst, _) in zip(lines, triples):
                s, d, r = line.split()
                assert (int(s), int(d)) == (src, dst)
                assert float(r) >= 0.0
