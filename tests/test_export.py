import hashlib
from pathlib import Path

import pytest

from oracles import csr_rows, reference_export
from pcosync.core import ModelParams
from pcosync.dtmc import build_dtmc
from pcosync.export import (
    CHUNK,
    export_model,
    read_states,
    read_transitions,
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


def assert_same_bytes_as_reference(model, tmp_path) -> dict[str, Path]:
    (tmp_path / "ref").mkdir()
    want = reference_export(model, tmp_path / "ref" / "m")
    got = export_model(model, tmp_path / "new" / "m")
    assert got.keys() == want.keys()
    for kind, path in got.items():
        assert path.name == want[kind].name
        assert path.read_bytes() == want[kind].read_bytes(), path.name
    return got


# SHA-256 of the N=8, T=10, R=2, eps=0.1, mu=0.2 export, as recorded for the
# benchmark's export check.
N8_R2_SHA256 = {
    "m.sta": "03edbf01c58105f89944e850ebb12ed82898e60c671c7004863c8dc013dfd7e8",
    "m.tra": "6f91a18c084f0a23ba667a6d99aaabceeb178022b73452aeb85ac28706f0f5c2",
    "m.time.trew": "659ed8d0c14ee521fe383d27d2b1e34b8417de8367126ebd2aa146161e0898eb",
    "m.power.trew": "48a1ce2a6433293d7e23cb301ff88b8e31e17dc906fa5093a324cd108c968d1c",
}


class TestSameBytesAsReference:
    @pytest.mark.parametrize("p", [
        ModelParams(n=4, t=5, r=1, epsilon=0.1, mu=0.2),
        ModelParams(n=4, t=5, r=1, epsilon=0.1, mu=0.2, u=1),
        ModelParams(n=3, t=4, r=1, epsilon=0.5, mu=0.2),
        ModelParams(n=6, t=8, r=1, epsilon=0.1, mu=0.99),
        ModelParams(n=1, t=5, r=1, epsilon=0.1, mu=0.2),
    ], ids=["n4t5", "n4t5restab", "n3t4", "n6t8mu99", "n1"])
    def test_small_models(self, p, tmp_path):
        assert_same_bytes_as_reference(build_dtmc(p), tmp_path)

    def test_golden_model_has_fewer_entries_than_a_chunk(self, tiny_model, tmp_path):
        assert tiny_model.n_transitions < CHUNK
        assert_same_bytes_as_reference(tiny_model, tmp_path)

    def test_n8_crosses_chunk_boundaries(self, tmp_path):
        model = build_dtmc(ModelParams(n=8, t=10, r=2, epsilon=0.1, mu=0.2))
        assert model.n_transitions == 41574 and model.n_transitions % CHUNK
        assert model.n_states > CHUNK and model.n_states % CHUNK
        paths = assert_same_bytes_as_reference(model, tmp_path)
        digests = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in paths.values()
        }
        assert digests == N8_R2_SHA256


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

    def test_misnumbered_states_rejected(self, tmp_path):
        bad = tmp_path / "bad.sta"
        bad.write_text("0:(0,2)\n5:(1,1)\n")
        with pytest.raises(ValueError, match="line 2: state index 5, expected 1"):
            read_states(bad)

    def test_declared_count_mismatch_rejected(self, tmp_path):
        bad = tmp_path / "bad.tra"
        bad.write_text("2 5\n0 1 1\n")
        with pytest.raises(ValueError):
            read_transitions(bad)


class TestRewardFiles:
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
