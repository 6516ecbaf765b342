import ast
import math
from fractions import Fraction
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gwcoal
from gwcoal import sampling
from gwcoal import FiniteSupportLaw, LinearFractionalLaw, stream_for_run
from gwcoal.errors import DomainError
from gwcoal.sampling import (
    MAX_WIDTH,
    UniformStream,
    _pcg64_state,
    _seed_states,
    as_stream,
    campaign_blocks,
    campaign_streams,
    cumulative,
    draw_count,
    draw_from_cumulative,
    geometric_failures,
    rng_for_run,
)


class TestStreams:
    def test_per_run_independence(self):
        a = stream_for_run(1, 0)
        b = stream_for_run(1, 1)
        assert [a.next() for _ in range(4)] != [b.next() for _ in range(4)]

    def test_reproducible(self):
        a = [stream_for_run(9, 2).next() for _ in range(3)]
        b = [stream_for_run(9, 2).next() for _ in range(3)]
        assert a == b

    @pytest.mark.parametrize("seed", [2 ** 64, 2 ** 64 + 1])
    def test_seed_past_64_bits_rejected(self, seed):
        with pytest.raises(DomainError, match=r"2\*\*64"):
            rng_for_run(seed, 0)
        with pytest.raises(DomainError, match=r"2\*\*64"):
            as_stream(seed)

    def test_largest_seed_accepted(self):
        assert 0 <= stream_for_run(2 ** 64 - 1, 0).next() < 1
        assert 0 <= as_stream(2 ** 64 - 1).next() < 1

    def test_as_stream_accepts_int_rng_stream(self):
        s = as_stream(7)
        assert isinstance(s, UniformStream)
        assert as_stream(s) is s
        assert isinstance(as_stream(rng_for_run(7, 0)), UniformStream)

    def test_block_refill(self):
        s = UniformStream(rng_for_run(0, 0), block=4)
        vals = [s.next() for _ in range(10)]
        assert len(set(vals)) == 10
        assert all(0 <= v < 1 for v in vals)

    @settings(max_examples=60, deadline=None)
    @given(
        cap=st.integers(min_value=1, max_value=8192),
        n=st.integers(min_value=0, max_value=20_000),
        seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
    )
    def test_reads_the_generator_in_order(self, cap, n, seed):
        stream = UniformStream(np.random.default_rng(seed), block=cap)
        expected = np.random.default_rng(seed).random(n).tolist()
        assert [stream.next() for _ in range(n)] == expected

    @settings(max_examples=80, deadline=None)
    @given(
        cap=st.integers(min_value=1, max_value=8192),
        reads=st.lists(
            st.one_of(st.none(), st.integers(min_value=0, max_value=3000)), max_size=40
        ),
        seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
    )
    def test_take_and_next_interleave_in_order(self, cap, reads, seed):
        # None is one next(), an integer n is one take(n)
        stream = UniformStream(np.random.default_rng(seed), block=cap)
        got = []
        for n in reads:
            if n is None:
                got.append(stream.next())
            else:
                block = stream.take(n)
                assert len(block) == n
                got.extend(block)
        assert got == np.random.default_rng(seed).random(len(got)).tolist()

    @settings(max_examples=80, deadline=None)
    @given(
        cap=st.integers(min_value=1, max_value=512),
        scans=st.lists(st.lists(st.sampled_from([0.0, 0.9, 0.99, 0.999, 1.0]), max_size=300),
                       max_size=12),
        seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
    )
    def test_first_reaching_reads_like_next(self, cap, scans, seed):
        # a floor of 1.0 is never reached; a scan may cross block ends
        stream = UniformStream(np.random.default_rng(seed), block=cap)
        ref = UniformStream(np.random.default_rng(seed), block=cap)
        for floors in scans:
            expected = None
            for i, floor in enumerate(floors):
                if (u := ref.next()) >= floor:
                    expected = i, u
                    break
            assert stream.first_reaching(floors) == expected
            assert stream.next() == ref.next()

    def test_take_refills_like_next(self):
        # the block schedule, and so the generator's state, is that of next()
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        UniformStream(a, block=64).take(100)
        s = UniformStream(b, block=64)
        for _ in range(100):
            s.next()
        assert a.random() == b.random()

    def test_take_negative_count_rejected(self):
        stream = stream_for_run(3, 0)
        head = stream.take(3)
        with pytest.raises(DomainError, match="negative"):
            stream.take(-2)
        # the read position did not move back
        assert head + stream.take(2) == stream_for_run(3, 0).take(5)

    def test_first_block_is_small(self):
        # a run that reads one uniform generates 32, not a full block
        rng = np.random.default_rng(5)
        UniformStream(rng).next()
        assert rng.random() == np.random.default_rng(5).random(33)[32]

    def test_block_is_capped_at_max_width(self):
        # draw_forward checks a draw's size only where a row crosses a
        # block's end, so it reads at most one block past MAX_WIDTH
        assert UniformStream(np.random.default_rng(0), block=10 * MAX_WIDTH)._block == MAX_WIDTH
        assert UniformStream(np.random.default_rng(0), block=64)._block == 64

    @pytest.mark.parametrize("block", [0, -5])
    def test_block_below_one_rejected(self, block):
        # an empty block refills to nothing, so take() would never return;
        # a negative one reached numpy; both are refused when the stream is made
        with pytest.raises(DomainError, match=rf"block must be >= 1, got {block}$"):
            UniformStream(np.random.default_rng(0), block=block)

    def test_smallest_block_accepted(self):
        stream = UniformStream(np.random.default_rng(3), block=1)
        assert stream.take(40) == np.random.default_rng(3).random(40).tolist()

    @pytest.mark.parametrize("module", ["tree", "chains", "verify"])
    def test_block_format_stays_in_sampling(self, module):
        # only sampling.py reads or refills a stream's block
        source = (Path(gwcoal.__file__).parent / f"{module}.py").read_text()
        touched = {node.attr for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Attribute)}
        assert not touched & {"_buf", "_pos", "_refill"}


def _read_mixed(stream: UniformStream, run: int, total: int) -> list[float | None]:
    """``total`` uniforms of ``stream`` read in pieces of 1 to 45 through
    ``take``, ``next`` and ``first_reaching`` in turn, the first piece's
    reader picked by ``run``.  A ``first_reaching`` piece shows only its
    last uniform; the others stand as None."""
    out: list[float | None] = []
    step = 0
    while len(out) < total:
        size = min(1 + (run + 7 * step) % 45, total - len(out))
        reader = (run + step) % 3
        if reader == 0:
            out += stream.take(size)
        elif reader == 1:
            out += [stream.next() for _ in range(size)]
        else:
            # no uniform reaches a floor of 1.0, every one reaches 0.0
            hit = stream.first_reaching([1.0] * (size - 1) + [0.0])
            assert hit is not None and hit[0] == size - 1
            out += [None] * (size - 1) + [hit[1]]
        step += 1
    return out


class TestCampaignStreams:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
        runs=st.lists(st.integers(min_value=0, max_value=2 ** 32 - 1), min_size=1, max_size=8),
    )
    def test_batched_hash_is_seed_sequence(self, seed, runs):
        columns = [c.tolist() for c in _seed_states(seed, np.array(runs, dtype=np.uint32))]
        for j, run in enumerate(runs):
            ss = np.random.SeedSequence((seed, run))
            assert [c[j] for c in columns] == ss.generate_state(4, np.uint64).tolist()
        start = min(runs[0], 2 ** 32 - 3)
        words = [c.tolist() for c in _seed_states(seed, np.arange(start, start + 3,
                                                                 dtype=np.uint32))]
        for index, run in enumerate(range(start, start + 3)):
            reference = np.random.PCG64(np.random.SeedSequence((seed, run)))
            state, inc = _pcg64_state(words, index, 0)
            assert reference.state["state"] == {"state": state, "inc": inc}
            # the state a campaign seats past a run's first block
            reference.random_raw(32)
            state, inc = _pcg64_state(words, index, 32)
            assert reference.state["state"] == {"state": state, "inc": inc}

    @pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1])
    @pytest.mark.parametrize("size", [1, 33, 100, 9000])
    def test_draws_are_those_of_stream_for_run(self, seed, size):
        for run, stream in enumerate(campaign_streams(seed, 3)):
            reference = stream_for_run(seed, run)
            assert stream.take(size) == reference.take(size)
            assert [stream.next() for _ in range(size)] == [reference.next() for _ in range(size)]

    # a campaign of one sub-chunk, and one whose last stream is in the second
    LEASE_RUNS = (3, sampling._SUB + 1)

    def test_stale_stream_refill_raises(self):
        for runs in self.LEASE_RUNS:
            streams = campaign_streams(4, runs)
            first = next(streams)
            head = first.take(32)
            second = next(streams)
            with pytest.raises(RuntimeError, match="next run"):
                first.next()
            assert head == stream_for_run(4, 0).take(32)
            assert second.take(40) == stream_for_run(4, 1).take(40)

    def test_last_stream_outlives_its_campaign(self):
        for runs in self.LEASE_RUNS:
            streams = list(campaign_streams(4, runs))
            # its first read would fall in its own first block, and still raises
            with pytest.raises(RuntimeError, match="next run"):
                streams[0].next()
            with pytest.raises(RuntimeError, match="next run"):
                streams[-2].take(1)
            assert streams[-1].take(100) == stream_for_run(4, runs - 1).take(100)

    # three sub-chunks of first blocks, the last one partial
    LONG_RUNS = 2 * sampling._SUB + sampling._SUB // 2 + 1

    @pytest.mark.parametrize("deep_every", [1, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2 ** 32, 2 ** 32 + 1, 2 ** 64 - 1])
    def test_long_campaign_reads_are_those_of_stream_for_run(self, seed, deep_every):
        # every run, or every third, reads 1 000 uniforms, the others stay
        # inside their first blocks
        for run, stream in enumerate(campaign_streams(seed, self.LONG_RUNS)):
            total = 1000 if run % deep_every == 0 else 1 + run % 32
            expected = stream_for_run(seed, run).take(total)
            read = _read_mixed(stream, run, total)
            assert len(read) == total
            assert all(u is None or u == v for u, v in zip(read, expected)), run

    @pytest.mark.parametrize("deep_every", [1, 2, 0])
    @pytest.mark.parametrize("runs", [1, 20, 641])
    def test_first_blocks_once_per_sub_chunk(self, monkeypatch, runs, deep_every):
        # every run, every other one, or none reads past its first block
        computed = []

        def counted(columns):
            computed.append(len(columns[0]))
            return first_blocks(columns)

        first_blocks = sampling._first_blocks
        monkeypatch.setattr(sampling, "_first_blocks", counted)
        for run, stream in enumerate(campaign_streams(2, runs)):
            size = 33 if deep_every and run % deep_every == 0 else 32
            assert stream.take(size) == stream_for_run(2, run).take(size)
        assert len(computed) == -(-runs // sampling._SUB)
        assert sum(computed) == runs

    @pytest.mark.parametrize("runs", [2 * sampling._SUB, sampling._CHUNK + 1])
    def test_stream_held_past_its_sub_chunk_raises(self, runs):
        # the last stream of a sub-chunk, and of a chunk of seed words
        sub_chunks = campaign_blocks(4, runs)
        held = -(-runs // sampling._SUB) - 1
        *_, (_, size, stream) = islice(sub_chunks, held)
        last = stream(size - 1)
        assert last.take(1) == stream_for_run(4, held * sampling._SUB - 1).take(1)
        next(sub_chunks)
        with pytest.raises(RuntimeError, match="next run"):
            last.take(100)

    def test_run_ids_past_32_bits_rejected(self):
        # raised before any run id is hashed
        with pytest.raises(DomainError, match="32 bits"):
            campaign_streams(0, 2 ** 32 + 1)
        # the largest campaign is accepted; it is hashed a chunk at a time
        first = next(campaign_streams(0, 2 ** 32))
        assert first.take(40) == stream_for_run(0, 0).take(40)
        with pytest.raises(DomainError, match=r"2\*\*64"):
            campaign_streams(2 ** 64, 1)

    @pytest.mark.parametrize("runs", [-1, 2 ** 32 + 1])
    def test_run_count_message_names_its_range(self, runs):
        with pytest.raises(DomainError, match=rf"run count must be in \[0, 2\*\*32\].* got {runs}$"):
            campaign_streams(0, runs)

    def test_empty_campaign(self):
        assert list(campaign_streams(0, 0)) == []


class TestDiscreteDraws:
    def test_cumulative_table(self):
        cum = cumulative((0.2, 0.3, 0.5))
        assert cum[-1] == pytest.approx(1.0)
        assert cum == pytest.approx((0.2, 0.5, 1.0))
        assert cumulative((Fraction(1, 2), Fraction(1, 2))) == pytest.approx((0.5, 1.0))

    def test_draw_from_cumulative_buckets(self):
        cum = (0.2, 0.5, 1.0)

        class One:
            def __init__(self, u):
                self.u = u

            def next(self):
                return self.u

        assert draw_from_cumulative(cum, One(0.1)) == 0
        assert draw_from_cumulative(cum, One(0.35)) == 1
        assert draw_from_cumulative(cum, One(0.95)) == 2

    def test_geometric_failures_moments(self):
        stream = stream_for_run(3, 0)
        n = 40_000
        lam = 0.4
        mean = sum(geometric_failures(lam, stream) for _ in range(n)) / n
        expected = (1 - lam) / lam
        assert mean == pytest.approx(expected, abs=0.05)
        assert geometric_failures(1.0, stream) == 0

    def test_draw_count_finite_law(self):
        law = FiniteSupportLaw((0.25, 0.5, 0.25))
        stream = stream_for_run(11, 0)
        n = 40_000
        counts = [0, 0, 0]
        for _ in range(n):
            counts[draw_count(law, stream)] += 1
        for k, p in enumerate(law.probs):
            se = math.sqrt(p * (1 - p) / n)
            assert abs(counts[k] / n - p) < 4 * se

    def test_draw_count_lf_law(self):
        law = LinearFractionalLaw(0.6, 0.5)
        stream = stream_for_run(13, 0)
        n = 40_000
        zero = 0
        total = 0
        for _ in range(n):
            v = draw_count(law, stream)
            zero += v == 0
            total += v
        assert zero / n == pytest.approx(0.4, abs=0.01)
        assert total / n == pytest.approx(law.mean(), abs=0.03)
