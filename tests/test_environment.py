import math
import pickle

import numpy as np
import pytest

from crossbandit.environment import (
    AdversarialShiftOracle,
    AuctionOracle,
    StochasticGapOracle,
    TableOracle,
    gap_means,
    load_opposing_bids,
    reveal,
    sample_context,
    uniform_opposing_bids,
)
from crossbandit.graph import GraphSpec, build_graph


class TestSampleContext:
    def test_point_mass(self):
        rng = np.random.default_rng(0)
        nu = np.zeros(5)
        nu[2] = 1.0
        assert all(sample_context(nu, rng) == 2 for _ in range(100))

    def test_uniform_frequencies(self):
        rng = np.random.default_rng(1)
        n = 100_000
        counts = np.zeros(8)
        nu = np.full(8, 0.125)
        for _ in range(n):
            counts[sample_context(nu, rng)] += 1
        bound = 3 * math.sqrt(0.125 * 0.875 / n)
        assert np.all(np.abs(counts / n - 0.125) <= bound)

    def test_seed_reproducibility(self):
        nu = np.array([0.5, 0.3, 0.2])
        rng1, rng2 = np.random.default_rng(4), np.random.default_rng(4)
        assert [sample_context(nu, rng1) for _ in range(200)] == \
               [sample_context(nu, rng2) for _ in range(200)]


class TestTableOracle:
    def test_returns_stored_values(self):
        tensor = np.array([[[0.1, 0.9], [0.5, 0.0]]])
        oracle = TableOracle(tensor)
        assert oracle.loss(0, 0, 1) == 0.9
        assert oracle.loss(0, 1, 0) == 0.5

    def test_repeated_queries_identical(self):
        rng = np.random.default_rng(3)
        oracle = TableOracle(rng.random((4, 2, 3)))
        vals = [oracle.loss(2, 1, 2) for _ in range(5)]
        assert len(set(vals)) == 1

    def test_out_of_range_rejected(self):
        oracle = TableOracle(np.zeros((2, 2, 2)))
        for t, c, a in ((2, 0, 0), (0, 2, 0), (0, 0, 2), (-1, 0, 0)):
            with pytest.raises(ValueError):
                oracle.loss(t, c, a)

    def test_rejects_out_of_unit_losses(self):
        with pytest.raises(ValueError):
            TableOracle(np.full((1, 1, 1), 1.5))

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "loss.csv"
        path.write_text("t,c,a,loss\n0,0,0,0.25\n0,0,1,0.75\n0,1,0,0.0\n0,1,1,1.0\n")
        oracle = TableOracle.from_csv(path)
        assert oracle.loss(0, 0, 1) == 0.75
        assert oracle.loss(0, 1, 1) == 1.0

    def test_csv_missing_cell_rejected(self, tmp_path):
        path = tmp_path / "loss.csv"
        path.write_text("0,0,0,0.25\n0,1,1,0.5\n")
        with pytest.raises(ValueError, match="cover"):
            TableOracle.from_csv(path)

    @pytest.mark.parametrize("row", ["-1,0,1,0.9", "0,-1,1,0.9", "0,0,-2,0.9", "0,1"])
    def test_csv_rejects_negative_indices_and_short_rows(self, tmp_path, row):
        # a negative index would wrap around and overwrite another cell
        path = tmp_path / "loss.csv"
        path.write_text("t,c,a,loss\n0,0,0,0.2\n0,0,1,0.3\n" + row + "\n")
        with pytest.raises(ValueError, match="line 4"):
            TableOracle.from_csv(path)

    def test_csv_non_numeric_cell_names_file_and_line(self, tmp_path):
        path = tmp_path / "loss.csv"
        path.write_text("t,c,a,loss\n0,0,0,0.2\n0,0,1,abc\n")
        with pytest.raises(ValueError, match=f"{path} line 3: .*'abc'"):
            TableOracle.from_csv(path)

    def test_npy_with_nan_rejected(self):
        with pytest.raises(ValueError, match="lie in"):
            TableOracle(np.array([[[0.5, np.nan]]]))

    def test_npy_roundtrip(self, tmp_path):
        tensor = np.random.default_rng(0).random((3, 2, 2))
        path = tmp_path / "loss.npy"
        np.save(path, tensor)
        oracle = TableOracle.from_npy(path)
        assert np.allclose(oracle.loss_slice(1), tensor[1])


class TestStochasticGapOracle:
    def test_empirical_means_match(self):
        means = gap_means(2, 4, base=0.3, gap=0.3, best_stride=1)
        T = 100_000
        oracle = StochasticGapOracle(means, num_rounds=T, seed=7)
        total = np.zeros_like(means)
        for t in range(T):
            total += oracle.loss_slice(t)
        emp = total / T
        se = np.sqrt(means * (1 - means) / T)
        assert np.all(np.abs(emp - means) <= 3 * se)

    def test_oblivious_replay(self):
        oracle = StochasticGapOracle(gap_means(3, 4), num_rounds=64, seed=5)
        forward = [oracle.loss(t, 1, 2) for t in range(64)]
        backward = [oracle.loss(t, 1, 2) for t in reversed(range(64))]
        assert forward == backward[::-1]
        # interleaved with other queries
        _ = oracle.loss_slice(63)
        assert oracle.loss(0, 1, 2) == forward[0]

    def test_losses_binary(self):
        oracle = StochasticGapOracle(gap_means(2, 3), num_rounds=128, seed=1)
        vals = {oracle.loss(t, c, a) for t in range(128) for c in range(2) for a in range(3)}
        assert vals <= {0.0, 1.0}


class TestAdversarialShift:
    def test_best_arm_shifts_at_quarter_boundaries(self):
        oracle = AdversarialShiftOracle(num_rounds=100, num_contexts=2, num_arms=5)
        phase_len = math.ceil(100 / 4)
        first = oracle.loss_slice(0)
        after = oracle.loss_slice(phase_len)
        assert np.argmin(first[0]) != np.argmin(after[0])
        assert np.argmin(first[0]) == np.argmin(oracle.loss_slice(phase_len - 1)[0])

    def test_losses_in_unit_interval(self):
        oracle = AdversarialShiftOracle(num_rounds=40, num_contexts=3, num_arms=4)
        for t in range(40):
            s = oracle.loss_slice(t)
            assert s.min() >= 0.0 and s.max() <= 1.0


class TestAuctionOracle:
    def test_win_at_value_gives_half_loss(self):
        oracle = AuctionOracle([0.5], [0.5], [0.3])
        assert oracle.loss(0, 0, 0) == pytest.approx(0.5)

    def test_losing_gives_half_loss(self):
        oracle = AuctionOracle([0.9], [0.2], [0.6])
        assert oracle.loss(0, 0, 0) == pytest.approx(0.5)

    def test_best_win_gives_zero_loss(self):
        oracle = AuctionOracle([1.0], [0.0], [0.0])
        assert oracle.loss(0, 0, 0) == pytest.approx(0.0)

    def test_overbidding_penalized_within_unit(self):
        oracle = AuctionOracle([0.0], [1.0], [0.0])
        assert oracle.loss(0, 0, 0) == pytest.approx(1.0)

    def test_unsorted_grids_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            AuctionOracle([0.5, 0.1], [0.1, 0.2], [0.0])
        with pytest.raises(ValueError, match="sorted"):
            AuctionOracle([0.1, 0.5], [0.9, 0.2], [0.0])

    def test_all_losses_in_unit_interval(self):
        rng = np.random.default_rng(11)
        oracle = AuctionOracle(np.sort(rng.random(4)), np.sort(rng.random(6)),
                                uniform_opposing_bids(256, seed=3))
        for t in range(256):
            s = oracle.loss_slice(t)
            assert s.min() >= 0.0 and s.max() <= 1.0

    def test_bids_csv_loader(self, tmp_path):
        path = tmp_path / "bids.csv"
        path.write_text("bid\n0.25\n0.5\n0.75\n")
        assert np.allclose(load_opposing_bids(path), [0.25, 0.5, 0.75])

    def test_bids_csv_without_header_and_with_blank_lines(self, tmp_path):
        path = tmp_path / "bids.csv"
        path.write_text("\n0.25\n\n0.5\n")
        assert load_opposing_bids(path).tolist() == [0.25, 0.5]

    @pytest.mark.parametrize("text,line", [
        ("bid\n0.1\n0.2x\n0.3\n", 3),  # a malformed bid would shift every later round
        ("bid\n0.1\n0.3\nnan\n", 4),  # a NaN bid never wins
        ("\nbid\nvalue\n0.1\n", 3),  # only the first nonblank line may be a header
        ("0.1\ninf\n", 2),
    ])
    def test_bids_csv_rejects_malformed_lines(self, tmp_path, text, line):
        path = tmp_path / "bids.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"line {line}"):
            load_opposing_bids(path)


class TestReveal:
    def setup_method(self):
        self.oracle = TableOracle(np.random.default_rng(9).random((8, 3, 6)))

    def test_complete_graph_reveals_everything(self):
        g = build_graph(GraphSpec(kind="complete_with_self_loops", num_arms=6))
        rev = reveal(self.oracle, g, 2, played_arm=4)
        assert list(rev.arms) == list(range(6))
        assert np.allclose(rev.losses, self.oracle.loss_slice(2))

    def test_self_loops_reveal_played_arm_only(self):
        g = build_graph(GraphSpec(kind="self_loops_only", num_arms=6))
        rev = reveal(self.oracle, g, 0, played_arm=3)
        assert list(rev.arms) == [3]
        assert np.allclose(rev.losses[:, 0], self.oracle.loss_slice(0)[:, 3])

    def test_cliques_reveal_own_clique_exactly(self):
        g = build_graph(GraphSpec(kind="disjoint_cliques", clique_sizes=(3, 3)))
        rev = reveal(self.oracle, g, 1, played_arm=4)
        assert list(rev.arms) == [3, 4, 5]

    def test_reveal_covers_all_contexts(self):
        g = build_graph(GraphSpec(kind="disjoint_cliques", clique_sizes=(2, 4)))
        rev = reveal(self.oracle, g, 5, played_arm=0)
        assert rev.losses.shape == (3, 2)

    def test_mutating_reveal_does_not_touch_oracle(self):
        g = build_graph(GraphSpec(kind="complete_with_self_loops", num_arms=6))
        before = self.oracle.loss_slice(3).copy()
        rev = reveal(self.oracle, g, 3, played_arm=0)
        rev.losses[:] += 1.0
        assert np.allclose(self.oracle.loss_slice(3), before)


def _every_oracle_kind():
    rng = np.random.default_rng(9)
    return [
        TableOracle(rng.random((6, 3, 4))),
        StochasticGapOracle(gap_means(3, 4), num_rounds=6, seed=2),
        AdversarialShiftOracle(6, 3, 4),
        AuctionOracle(np.linspace(0, 1, 3), np.linspace(0, 1, 4),
                      uniform_opposing_bids(6, seed=2)),
    ]


@pytest.mark.parametrize("kind", range(4))
def test_loss_slices_are_read_only_and_repeat(kind):
    oracle = _every_oracle_kind()[kind]
    # rounds revisited out of order, so cached tables are asked for again;
    # a fresh oracle's first answer is the reference for each round
    for t in (0, 1, 5, 1, 0, 5):
        first, again = oracle.loss_slice(t), oracle.loss_slice(t)
        assert not first.flags.writeable and not again.flags.writeable
        assert first.tobytes() == again.tobytes()
        assert first.tobytes() == _every_oracle_kind()[kind].loss_slice(t).tobytes()
        with pytest.raises(ValueError):
            first[0, 0] = 0.5


@pytest.mark.parametrize("kind", range(4))
def test_pickled_oracles_keep_read_only_slices(kind):
    # a run plan shares one oracle, pickled whole, with worker processes
    oracle = _every_oracle_kind()[kind]
    oracle.loss_slice(5)  # a chunked oracle's cached chunk is not pickled
    copy = pickle.loads(pickle.dumps(oracle))
    for t in (5, 0):
        assert not copy.loss_slice(t).flags.writeable
        assert copy.loss_slice(t).tobytes() == oracle.loss_slice(t).tobytes()


def test_table_oracle_leaves_the_callers_tensor_writeable():
    tensor = np.zeros((2, 2, 2))
    TableOracle(tensor)
    tensor[0, 0, 0] = 0.5
