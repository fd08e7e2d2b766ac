"""Fluorescence-cycle counting and the recoil random walk."""

import os
import threading
import time
import tracemalloc

import numpy as np
import pytest

from pumpsim import heating, kinetics
from pumpsim.config import load_config
from pumpsim.heating import (
    CycleReport,
    _walk,
    expected_cycles,
    heating_summary,
    recoil_walk,
    write_heating_summary,
)
from pumpsim.kinetics import (
    Beam,
    LIBRARY_DT,
    Trajectory,
    assemble_rate_matrix,
    first_crossing,
    integrate_rk4,
    prune,
    single_sublevel,
    uniform_f4,
)
from pumpsim.structure import STATES, Sublevel, branching_table, state_index


def ideal_pump_beams():
    # ideal pi polarization: the heating estimate concerns the pumping
    # transient, not the residual contamination
    return [Beam(4, 4, 0.019, -0.5, 0.0), Beam(3, 4, 0.023, 0.0, 0.0)]


HEATING_PAPER = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "scenarios", "heating_paper.ini",
)


def walk_3d(counts, pb_axis, detection_axis, rng):
    """Reference walk in three dimensions: per cycle, a random-sign recoil
    along the back-reflected pump axis and an isotropic emission recoil,
    projected on the detection axis at the end."""
    samples = counts.size
    pb = np.asarray(pb_axis)
    velocity = np.zeros((samples, 3))
    for k in range(int(counts.max())):
        active = counts > k
        sign = rng.integers(0, 2, size=samples) * 2.0 - 1.0
        velocity += np.where(active, sign, 0.0)[:, None] * pb
        cos_theta = rng.uniform(-1.0, 1.0, size=samples)
        phi = rng.uniform(0.0, 2.0 * np.pi, size=samples)
        sin_theta = np.sqrt(1.0 - cos_theta**2)
        emission = np.stack(
            [sin_theta * np.cos(phi), sin_theta * np.sin(phi), cos_theta], axis=1
        )
        velocity += np.where(active, 1.0, 0.0)[:, None] * emission
    return velocity @ np.asarray(detection_axis)


def rms_and_se(projected):
    sq = projected**2
    rms = np.sqrt(sq.mean())
    return rms, np.std(sq, ddof=1) / np.sqrt(sq.size) / (2.0 * rms)


class TestRecoilWalk:
    def test_zero_cycles_zero_spread(self):
        result = recoil_walk(0, samples=1000, seed=3)
        assert result.delta_vrms == 0.0

    def test_emission_only_isotropic_walk(self):
        # one emission recoil projects uniformly on [-1, 1] (hat-box theorem)
        single = recoil_walk(1, samples=100_000, seed=5).projected
        assert np.all(np.abs(single) <= 1.0)
        counts, _ = np.histogram(single, bins=10, range=(-1.0, 1.0))
        assert np.all(np.abs(counts - 10_000) < 5.0 * np.sqrt(10_000))
        # closed form: rms along any axis = sqrt(N/3) recoil velocities
        result = recoil_walk(12, samples=100_000, seed=5)
        assert result.delta_vrms == pytest.approx(np.sqrt(12 / 3), rel=0.02)

    def test_absorption_invisible_on_orthogonal_axis(self):
        # back-reflected pump orthogonal to the detection axis adds nothing
        result = recoil_walk(12, samples=100_000, seed=5)
        assert result.delta_vrms == pytest.approx(np.sqrt(12 / 3), rel=0.02)

    def test_seed_determinism(self):
        a = recoil_walk(9, samples=20_000, seed=42)
        b = recoil_walk(9, samples=20_000, seed=42)
        assert a.delta_vrms == b.delta_vrms
        assert np.array_equal(a.projected, b.projected)
        c = recoil_walk(9, samples=20_000, seed=43)
        assert c.delta_vrms != a.delta_vrms

    def test_sqrt_n_scaling(self):
        rms = [
            recoil_walk(n, samples=100_000, seed=11).delta_vrms
            for n in (4, 16, 64, 256)
        ]
        slope = np.polyfit(np.log([4, 16, 64, 256]), np.log(rms), 1)[0]
        assert slope == pytest.approx(0.5, abs=0.03)

    def test_doubling_cycles_scales_sqrt2(self):
        r1 = recoil_walk(8, samples=100_000, seed=17)
        r2 = recoil_walk(16, samples=100_000, seed=18)
        assert r2.delta_vrms / r1.delta_vrms == pytest.approx(np.sqrt(2.0), rel=0.03)

    def test_isotropy_without_absorption(self):
        # the detection-axis walk is the 3-D walk projected: the emission
        # recoils add the same spread on any axis, and the absorption along
        # a pump axis orthogonal to the detection axis adds nothing
        s = np.sqrt(0.5)
        axis_pairs = [
            ((0.0, s, s), (1.0, 0.0, 0.0)),
            ((0.0, 1.0, 0.0), (s, 0.0, s)),
        ]
        counts = np.full(100_000, 10)
        for pb_axis, detection_axis in axis_pairs:
            assert np.dot(pb_axis, detection_axis) == 0.0
            reference = walk_3d(counts, pb_axis, detection_axis,
                                np.random.Generator(np.random.Philox(23)))
            scalar = recoil_walk(10, samples=counts.size, seed=24).projected
            (rms_a, se_a), (rms_b, se_b) = rms_and_se(reference), rms_and_se(scalar)
            assert abs(rms_a - rms_b) < 3.0 * np.hypot(se_a, se_b)
            abs_a, abs_b = np.abs(reference), np.abs(scalar)
            se_abs = np.hypot(abs_a.std(ddof=1), abs_b.std(ddof=1)) / np.sqrt(counts.size)
            assert abs(abs_a.mean() - abs_b.mean()) < 3.0 * se_abs

    def test_standard_error_scales_with_samples(self):
        small = recoil_walk(10, samples=25_000, seed=29)
        large = recoil_walk(10, samples=100_000, seed=29)
        assert large.standard_error == pytest.approx(
            small.standard_error / 2.0, rel=0.2
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            recoil_walk(5, samples=0)
        with pytest.raises(ValueError):
            recoil_walk(5, samples=1)
        with pytest.raises(ValueError):
            recoil_walk(-1)

    @pytest.mark.parametrize("bad", [1e5, 2.5])
    def test_float_counts_rejected(self, bad):
        # a float sample count used to crash inside numpy, and a float cycle
        # count was truncated without a word
        with pytest.raises(ValueError, match="samples must be an integer"):
            recoil_walk(4, samples=bad)
        with pytest.raises(ValueError, match="cycles must be an integer"):
            recoil_walk(bad, samples=10)

    def test_numpy_integer_counts_accepted(self):
        a = recoil_walk(np.int64(10), samples=np.int64(10), seed=3)
        b = recoil_walk(10, samples=10, seed=3)
        assert a.mean_cycles == 10.0
        np.testing.assert_array_equal(a.projected, b.projected)


def kick_stream(rng):
    """take(size): the next `size` kicks of one sequential stream, two to a
    raw draw of rng's Philox from its next raw draw on, the low 32-bit half
    first; a half u gives the kick ((2u + 1) - 2**32) / 2**32."""
    left = np.empty(0, dtype=np.uint64)   # a high half not yet taken

    def take(size):
        nonlocal left
        raw = rng.bit_generator.random_raw(max(0, size - left.size + 1) // 2)
        halves = np.concatenate([left, np.column_stack([raw & 0xFFFFFFFF, raw >> 32]).ravel()])
        left, u = halves[size:], halves[:size].astype(np.int64)
        return ((2 * u + 1) - 2**32) / 2.0**32

    return take


def masked_kicks(counts, rng):
    """The sequential reference walk for equal counts: one kick of
    kick_stream per sample and cycle, added where the sample's count
    exceeds the cycle."""
    take = kick_stream(rng)
    velocity = np.zeros(counts.size)
    for k in range(int(counts.max())):
        velocity += np.where(counts > k, take(counts.size), 0.0)
    return velocity


def walking_kicks(counts, rng):
    """The sequential reference walk for any counts: the samples ordered by
    decreasing count, then by index; in each cycle the samples still walking
    take one kick of kick_stream each, in that order, and the others none."""
    take = kick_stream(rng)
    order = np.lexsort((np.arange(counts.size), -counts))
    velocity = np.zeros(counts.size)
    for k in range(int(counts.max(initial=0))):
        walking = order[counts[order] > k]
        velocity[walking] += take(walking.size)
    return velocity


# mixed counts with zeros, 503 samples split unevenly into parts
MIXED = np.resize([0, 3, 1, 0, 7, 2, 5, 0, 1, 4, 6], 503)


def test_references_agree_on_equal_counts():
    # with equal counts the walking order is the identity, so the two
    # references draw the same kicks and keep the same bits
    counts = np.full(500, 6)
    a = masked_kicks(counts, np.random.Generator(np.random.Philox(9)))
    b = walking_kicks(counts, np.random.Generator(np.random.Philox(9)))
    assert np.array_equal(a, b)


def test_walk_matches_masked_kicks():
    # recoil_walk's fixed count walks every sample in every cycle: sample
    # i's kick in cycle k is kick k * n + i, and the velocities keep the
    # bits, and the sign of zero, of the sequential masked walk
    for cycles, samples, seed in ((0, 10, 3), (1, 503, 5), (9, 20_000, 42)):
        velocity = masked_kicks(np.full(samples, cycles),
                                np.random.Generator(np.random.Philox(seed)))
        projected = recoil_walk(cycles, samples=samples, seed=seed).projected
        assert np.array_equal(projected, velocity)
        assert np.array_equal(np.signbit(projected), np.signbit(velocity))


# ways to leave a Philox stream before the walk: fresh, or partway
# through a 4-draw block, or holding a buffered 32-bit half
STARTS = {
    "fresh": lambda rng: None,
    "odd_integers": lambda rng: rng.integers(-4, 5, size=7),
    "raw_3": lambda rng: rng.bit_generator.random_raw(3),
    "raw_4": lambda rng: rng.bit_generator.random_raw(4),
    "uint32": lambda rng: rng.integers(0, 2**32 - 1, size=3, dtype=np.uint32),
}


def test_kick_lattice_ends_and_middle(monkeypatch):
    # each raw draw gives its low half's kick, then its high half's: the
    # halves 0 and 2**32 - 1 give -(1 - 2**-32) and 1 - 2**-32 exactly, and
    # the two middle halves -2**-32 and 2**-32
    draws = np.array([0xFFFFFFFF_00000000, 0x80000000_7FFFFFFF], dtype=np.uint64)

    class Draws:
        def random_raw(self, size):
            return draws[:size]

    monkeypatch.setattr(heating, "_parts", lambda samples: 1)
    monkeypatch.setattr(heating, "_philox_at", lambda key, draw: Draws())
    velocity = _walk(np.ones(4, dtype=np.int64), np.random.Generator(np.random.Philox(9)))
    assert velocity.tolist() == [-(1 - 2**-32), 1 - 2**-32, -(2**-32), 2**-32]


# a fresh Philox stands before block 1: its next raw draw is draw 4
FRESH = 4


def test_philox_at_matches_one_sequential_stream():
    # the placed generator's next raw draw is draw d of one stream, whose
    # block c holds the draws 4c..4c+3; counter 2**256 - 1 stands before
    # block 0, and 2**64 - 3 before a carry into the counter's second word
    key = np.random.Philox(9).state["state"]["key"]
    assert np.array_equal(np.random.Philox(key=key).random_raw(8),
                          np.random.Philox(key=key, counter=2**256 - 1).random_raw(12)[FRESH:])
    for base, counter in ((0, 2**256 - 1), (4 * (2**64 - 2), 2**64 - 3)):
        stream = np.random.Philox(key=key, counter=counter).random_raw(41)
        for d in range(41):
            assert heating._philox_at(key, base + d).random_raw() == stream[d], d


def check_walk(counts, reference=walking_kicks, start="fresh"):
    """_walk against a reference walk from the same stream position: the
    same bits, the same signs of zero, and the generator left where it
    stood."""
    expected, walked = (np.random.Generator(np.random.Philox(9)) for _ in range(2))
    STARTS[start](expected)
    STARTS[start](walked)
    before = walked.bit_generator.state
    velocity = reference(counts, expected)
    result = _walk(counts, walked)
    assert np.array_equal(result, velocity)
    assert np.array_equal(np.signbit(result), np.signbit(velocity))
    assert str(walked.bit_generator.state) == str(before)


@pytest.mark.parametrize("start", sorted(STARTS))
@pytest.mark.parametrize("parts", [1, 2, 3, 7])
def test_walk_in_parts_matches_masked_kicks(monkeypatch, parts, start):
    # equal counts, 503 samples split unevenly; every part's draws are
    # placed in the one stream, so the bits are those of the sequential
    # masked walk whatever the number of parts
    monkeypatch.setattr(heating, "_parts", lambda samples: parts)
    check_walk(np.full(503, 4), masked_kicks, start)


@pytest.mark.parametrize("start", sorted(STARTS))
@pytest.mark.parametrize("parts", [1, 2, 3, 7])
def test_walk_in_parts_matches_walking_kicks(monkeypatch, parts, start):
    # mixed counts: the bits are those of the sequential walk of the
    # walking samples, whatever the number of parts
    monkeypatch.setattr(heating, "_parts", lambda samples: parts)
    check_walk(MIXED, walking_kicks, start)


@pytest.mark.parametrize("empty", [0, 1, 2])
def test_walk_with_an_empty_part_matches_walking_kicks(monkeypatch, empty):
    # a third of the samples, first, middle or last by index, walk no cycle:
    # they sort to the end of the order, draw nothing and keep their +0.0
    monkeypatch.setattr(heating, "_parts", lambda samples: 3)
    counts = np.resize([0, 3, 1, 0, 7, 2, 5, 0, 1, 4, 6], 33)
    counts[11 * empty : 11 * (empty + 1)] = 0
    check_walk(counts)


@pytest.mark.parametrize("counts", [
    np.zeros(33, dtype=np.int64),                # nothing to walk: every part is empty
    np.resize([0, 0, 0, 0, 0, 0, 0, 0, 2], 33),  # fewer walking samples than parts
    np.resize([1, 0, 0], 33),                    # one cycle for a third of them
    np.array([40] + [0] * 32),                   # one sample holds every draw
], ids=["zeros", "sparse", "one_cycle", "one_sample"])
def test_walk_with_parts_that_draw_nothing(monkeypatch, counts):
    # a part with no kick to draw walks no cycle, and a sample with count 0
    # keeps its +0.0
    monkeypatch.setattr(heating, "_parts", lambda samples: 3)
    check_walk(counts)


def next_draw(bit_generator) -> int:
    """The index in its stream of a Philox's next raw draw."""
    state = bit_generator.state
    counter = sum(int(w) << (64 * i) for i, w in enumerate(state["state"]["counter"]))
    return 4 * counter + state["buffer_pos"]


PHILOX_AT = heating._philox_at


def spy_on_draws(monkeypatch, parts, fail=None):
    """Walk in `parts` parts with a _philox_at that records (thread, first
    draw, bit generator) for every range a part places. With `fail` set to
    "caller" or "pooled" it raises on that side instead, and with "caller"
    the pooled parts are slowed down."""
    placed, caller = [], threading.current_thread()

    def spy(key, draw):
        thread = threading.current_thread()
        if fail == ("caller" if thread is caller else "pooled"):
            raise RuntimeError(f"{fail} part failed")
        if fail == "caller":
            time.sleep(0.02)
        placed.append((thread, draw, PHILOX_AT(key, draw)))
        return placed[-1][2]

    monkeypatch.setattr(heating, "_parts", lambda samples: parts)
    monkeypatch.setattr(heating, "_philox_at", spy)
    return placed


def raw_draws(kicks) -> int:
    """The raw draws that hold `kicks` kicks, two to a draw."""
    return -(-kicks // 2)


@pytest.mark.parametrize("parts", [1, 2, 3])
def test_walk_draws_one_kick_per_walked_cycle(monkeypatch, parts):
    # the placed raw ranges tile the stream from the generator's next draw
    # on: two kicks to a draw, one kick per sample and cycle it walks and
    # none for spent samples. A range whose first kick is a high half
    # (an odd kick index) shares that draw with the range before it.
    placed = spy_on_draws(monkeypatch, parts)
    _walk(MIXED, np.random.Generator(np.random.Philox(9)))
    spans = sorted((draw, next_draw(bg)) for _, draw, bg in placed)
    assert spans[0][0] == FRESH and spans[-1][1] == FRESH + raw_draws(MIXED.sum())
    shared = [b[0] == a[1] - 1 for a, b in zip(spans, spans[1:])]
    assert all(b[0] in (a[1] - 1, a[1]) for a, b in zip(spans, spans[1:]))
    assert any(shared)   # odd starts included
    assert sum(end - draw for draw, end in spans) == raw_draws(MIXED.sum()) + sum(shared)


@pytest.mark.parametrize("parts", [2, 3])
def test_walk_parts_draw_about_equal_shares(monkeypatch, parts):
    # the parts are cut by kicks, not by samples: each part's raw draws stay
    # within one sample's count of an equal share, plus the one draw each
    # of its ranges may share with a neighbour
    placed = spy_on_draws(monkeypatch, parts)
    # each part waits for the others at its first range, so that no pool
    # thread is idle, and walks a second part, while a part is submitted
    barrier, started, spy = threading.Barrier(parts), set(), heating._philox_at

    def first_waits(key, draw):
        if threading.current_thread() not in started:
            started.add(threading.current_thread())
            barrier.wait(timeout=10)
        return spy(key, draw)

    monkeypatch.setattr(heating, "_philox_at", first_waits)
    counts = np.resize([0, 9, 1, 0, 7, 2, 5, 0, 1, 4, 6], 5_003)
    _walk(counts, np.random.Generator(np.random.Philox(9)))
    shares = {}
    for thread, draw, bg in placed:
        shares[thread] = shares.get(thread, 0) + next_draw(bg) - draw
    assert len(shares) == parts
    assert 0 <= sum(shares.values()) - raw_draws(counts.sum()) < len(placed)
    assert max(shares.values()) - min(shares.values()) <= 2 * counts.max()


def test_walk_part_failure_reaches_caller(monkeypatch):
    # a part walked on another thread fails; the walk raises its error once
    # every part has ended, and leaves the generator where it was
    spy_on_draws(monkeypatch, 2, fail="pooled")
    rng = np.random.Generator(np.random.Philox(9))
    before = rng.bit_generator.state
    with pytest.raises(RuntimeError, match="pooled part failed"):
        _walk(MIXED, rng)
    assert str(rng.bit_generator.state) == str(before)


def test_walk_caller_part_failure_waits_for_pooled_parts(monkeypatch):
    # part 0, walked on the calling thread, fails at once; its error is
    # raised only after the slower pooled part has placed every range it
    # places in a walk that does not fail
    caller = threading.current_thread()
    placed = spy_on_draws(monkeypatch, 2)
    _walk(MIXED, np.random.Generator(np.random.Philox(9)))
    walked = sorted(draw for thread, draw, _ in placed if thread is not caller)
    placed = spy_on_draws(monkeypatch, 2, fail="caller")
    rng = np.random.Generator(np.random.Philox(9))
    before = rng.bit_generator.state
    with pytest.raises(RuntimeError, match="caller part failed"):
        _walk(MIXED, rng)
    assert walked and sorted(draw for _, draw, _ in placed) == walked
    assert str(rng.bit_generator.state) == str(before)


@pytest.mark.parametrize("fails", [False, True])
def test_walk_leaves_no_thread_running(monkeypatch, fails):
    # every thread a walk starts has ended when it returns or raises
    placed = spy_on_draws(monkeypatch, 3, "pooled" if fails else None)
    before = set(threading.enumerate())
    rng = np.random.Generator(np.random.Philox(9))
    if fails:
        with pytest.raises(RuntimeError, match="pooled part failed"):
            _walk(MIXED, rng)
    else:
        _walk(MIXED, rng)
        started = {thread for thread, _, _ in placed} - {threading.current_thread()}
        assert started and not any(thread.is_alive() for thread in started)
    assert set(threading.enumerate()) <= before


def test_part_count_follows_cpus_and_samples():
    # one part per usable CPU, none smaller than _MIN_PART samples
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert heating._parts(2) == 1
    assert heating._parts(10**9) == cpus
    for n in (heating._MIN_PART - 1, 40_000, 100_000):
        assert n // heating._parts(n) >= min(n, heating._MIN_PART)


STEP_POWERS = kinetics._step_powers


@pytest.fixture(scope="module")
def heating_paper_beams():
    return load_config(HEATING_PAPER).beams


@pytest.fixture(scope="module")
def report() -> CycleReport:
    return expected_cycles(ideal_pump_beams(), pruned=True)


class TestExpectedCycles:

    def test_dark_start_needs_no_photons(self, report):
        assert report.per_sublevel[0] == 0.0

    def test_edge_states_cost_more(self, report):
        assert report.per_sublevel[4] > report.per_sublevel[1]
        assert report.per_sublevel[-4] > report.per_sublevel[-1]

    def test_mirror_symmetry(self, report):
        for m in (1, 2, 3, 4):
            assert report.per_sublevel[m] == pytest.approx(
                report.per_sublevel[-m], rel=1e-9
            )

    def test_threshold_reached(self, report):
        assert all(report.reached.values())
        assert report.uniform_reached

    def test_interior_crossing_interpolated(self, report):
        # the count falls between the photons of the two samples that
        # bracket the threshold crossing
        rm, _ = prune(assemble_rate_matrix(ideal_pump_beams()), 1e-3)
        traj = integrate_rk4(rm, single_sublevel(Sublevel("g", 4, 2)), LIBRARY_DT,
                             report.t_end, max_samples=4001)
        k = int(np.argmax(traj.sublevel_fraction(Sublevel("g", 4, 0)) >= report.threshold))
        assert k > 0
        photons = traj.scattered_photons
        assert photons[k - 1] < report.per_sublevel[2] <= photons[k]

    def test_against_first_passage_oracle(self, report):
        # independent oracle: expected jumps of the embedded Markov chain.
        # Every ground sublevel is excited to e(4',m) by its pi beam; the
        # branching row then redistributes it. One photon per jump, absorbing
        # at g(4,0). The kinetics photon count must agree.
        table = branching_table()
        ground = [lv for lv in STATES if lv.is_ground and not (lv.f == 4 and lv.m == 0)]
        index = {lv: i for i, lv in enumerate(ground)}
        P = np.zeros((len(ground), len(ground)))
        for lv, i in index.items():
            row = table[state_index(Sublevel("e", 4, lv.m))]
            for target, j in index.items():
                P[i, j] = row[state_index(target)]
        jumps = np.linalg.solve(np.eye(len(ground)) - P, np.ones(len(ground)))
        for m in range(-4, 5):
            if m == 0:
                continue
            oracle = jumps[index[Sublevel("g", 4, m)]]
            # the 95% threshold stops just short of the full expectation,
            # so the count approaches the oracle from below
            assert 0.9 * oracle < report.per_sublevel[m] < oracle * (1 + 1e-6)
        uniform_oracle = (
            sum(jumps[index[Sublevel("g", 4, m)]] for m in range(-4, 5) if m != 0) / 9.0
        )
        assert 0.9 * uniform_oracle < report.uniform < uniform_oracle * (1 + 1e-6)

    def test_unreached_threshold_reported(self):
        report = expected_cycles(ideal_pump_beams(), t_end=2e-5, pruned=True)
        assert not report.uniform_reached
        assert report.uniform > 0.0

    @pytest.mark.parametrize("t_end", [0.02, 2e-5])
    def test_matches_per_start_oracle(self, t_end):
        # oracle: each start in its own one-column run, read the same way
        rm, _ = prune(assemble_rate_matrix(ideal_pump_beams()), 1e-3)
        report = expected_cycles(ideal_pump_beams(), t_end=t_end, pruned=True)

        def one_start(n0):
            traj = integrate_rk4(rm, n0, LIBRARY_DT, t_end, max_samples=4001)
            fraction = traj.sublevel_fraction(Sublevel("g", 4, 0))
            hit = first_crossing(traj, fraction, report.threshold)
            return (hit[1], True) if hit else (float(traj.scattered_photons[-1]), False)

        singles = [one_start(single_sublevel(Sublevel("g", 4, m))) for m in range(-4, 5)]
        for m, (photons, reached) in zip(range(-4, 5), singles):
            assert report.per_sublevel[m] == pytest.approx(photons, rel=1e-12)
            assert report.reached[m] == reached
        assert report.average == pytest.approx(
            np.mean([p for p, _ in singles]), rel=1e-12
        )
        photons, reached = one_start(uniform_f4())
        assert report.uniform == pytest.approx(photons, rel=1e-12)
        assert report.uniform_reached == reached
        # 2e-5 s reaches the threshold from the dark start only
        assert sum(report.reached.values()) == (9 if t_end == 0.02 else 1)

    @pytest.mark.parametrize("alpha, pruned", [
        (0.0, False),
        (0.035, False),  # stationary m0 fraction 0.952: a late crossing
        (0.05, True),    # stationary m0 fraction 0.922: never reached
    ])
    def test_bit_equal_to_full_window(self, alpha, pruned):
        # reference: full 4,001-row blocks of five, each column read by
        # first_crossing, photons at t_end where it finds none
        beams = [Beam(4, 4, 0.019, -0.5, alpha), Beam(3, 4, 0.023, 0.0, alpha)]
        report = expected_cycles(beams, pruned=pruned)
        rm = assemble_rate_matrix(beams)
        if pruned:
            rm, _ = prune(rm)
        starts = np.column_stack(
            [single_sublevel(Sublevel("g", 4, m)) for m in range(-4, 5)] + [uniform_f4()])
        photons, hits = [], []
        for block in (starts[:, :5], starts[:, 5:]):
            traj = integrate_rk4(rm, block, LIBRARY_DT, report.t_end, max_samples=4001)
            assert traj.times.size == 4001
            for j in range(5):
                column = Trajectory(traj.times, traj.populations[:, :, j],
                                    traj.scattered_photons[:, j])
                hit = first_crossing(column, column.sublevel_fraction(Sublevel("g", 4, 0)),
                                     report.threshold)
                photons.append(hit[1] if hit else float(column.scattered_photons[-1]))
                hits.append(hit is not None)
        assert [*report.per_sublevel.values(), report.uniform] == photons
        assert [*report.reached.values(), report.uniform_reached] == hits
        assert all(hits) == (alpha < 0.05)

    @pytest.mark.parametrize("pruned", [False, True])
    def test_heating_paper_blocks_stop_early(self, pruned, monkeypatch):
        # every heating_paper start reaches 0.95 about 2 ms into the 20 ms
        # window, so each block stops long before its 4,001 rows
        returned = []

        def integrate(*args, **kwargs):
            traj = integrate_rk4(*args, **kwargs)
            returned.append(traj.times.size)
            return traj

        monkeypatch.setattr("pumpsim.heating.integrate_rk4", integrate)
        report = expected_cycles(load_config(HEATING_PAPER).beams, pruned=pruned)
        assert all(report.reached.values()) and report.uniform_reached
        assert len(returned) == 2 and max(returned) < 500

    @pytest.mark.parametrize("alpha", [None, 0.05])
    @pytest.mark.parametrize("pruned", [False, True])
    def test_blocks_share_one_stack(self, pruned, alpha, monkeypatch):
        # both blocks integrate on one matrix with one layout, so the second
        # reuses the first one's power stack: one _step_powers per call, also
        # at alpha 0.05, where no block stops before t_end
        beams = load_config(HEATING_PAPER).beams
        if alpha is not None:
            beams = [Beam(4, 4, 0.019, -0.5, alpha), Beam(3, 4, 0.023, 0.0, alpha)]
        built, integrated = [], []

        def step_powers(*args):
            built.append(args[1])
            return STEP_POWERS(*args)

        def integrate(*args, **kwargs):
            integrated.append(integrate_rk4(*args, **kwargs))
            return integrated[-1]

        monkeypatch.setattr(kinetics, "_step_powers", step_powers)
        monkeypatch.setattr(heating, "integrate_rk4", integrate)
        for calls in (1, 2):
            report = expected_cycles(beams, pruned=pruned)
            assert len(built) == calls and len(integrated) == 2 * calls
        assert all(report.reached.values()) == (alpha is None)
        if alpha is not None:
            assert [traj.times.size for traj in integrated] == [4001] * 4

    def test_block_store_memory_bound(self):
        # each block of five starts allocates 4001 x 44 x 5 doubles (7 MB),
        # of which a stopped run writes only its first rows; the peak is
        # about 7.8 MB. The blocks hold five starts for their bits, not for
        # memory (see expected_cycles).
        beams = load_config(HEATING_PAPER).beams
        expected_cycles(beams)  # build the cached tables outside the trace
        tracemalloc.start()
        try:
            expected_cycles(beams)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6


class TestHeatingSummary:
    def test_composition_and_quadrature(self):
        summary = heating_summary(
            ideal_pump_beams(), samples=50_000, seed=101, initial_vrms=4.0
        )
        delta = summary.result.delta_vrms
        assert summary.final_vrms_quadrature == pytest.approx(
            np.sqrt(16.0 + delta**2), rel=1e-12
        )
        assert summary.final_vrms_additive == pytest.approx(4.0 + delta, rel=1e-12)
        # rms follows the mean cycle count through the isotropic-walk formula
        assert delta == pytest.approx(
            np.sqrt(summary.result.mean_cycles / 3.0), rel=0.02
        )

    def test_seeded_reproducibility(self):
        a = heating_summary(ideal_pump_beams(), samples=20_000, seed=7)
        b = heating_summary(ideal_pump_beams(), samples=20_000, seed=7)
        assert a.result.delta_vrms == b.result.delta_vrms

    @pytest.mark.parametrize("samples", [0, 1])
    def test_too_few_samples_rejected(self, samples):
        # one sample has no standard error and none has no rms: both used to
        # come back as NaN
        with pytest.raises(ValueError, match="at least two samples"):
            heating_summary(ideal_pump_beams(), samples=samples)

    @pytest.mark.parametrize("bad", [1e5, 2.5])
    def test_float_samples_rejected(self, bad):
        with pytest.raises(ValueError, match="samples must be an integer"):
            heating_summary(ideal_pump_beams(), samples=bad)

    def test_numpy_integer_samples_accepted(self):
        a = heating_summary(ideal_pump_beams(), samples=np.int64(10), seed=7)
        b = heating_summary(ideal_pump_beams(), samples=10, seed=7)
        np.testing.assert_array_equal(a.result.projected, b.result.projected)

    @pytest.mark.parametrize("samples", [2, 1_000, 100_000])
    @pytest.mark.parametrize("pruned", [False, True])
    @pytest.mark.parametrize("seed", [0, 7, 2718])
    def test_matches_sequential_reference(self, seed, pruned, samples, heating_paper_beams):
        # the draws beside the cycle counts and the walk on the pool keep
        # the bits of one thread drawing, then walking
        rng = np.random.Generator(np.random.Philox(seed))
        report = expected_cycles(heating_paper_beams, pruned=pruned)
        ms = rng.integers(-4, 5, size=samples)
        expected = np.array([report.per_sublevel[m] for m in range(-4, 5)])[ms + 4]
        base = np.floor(expected)
        counts = (base + (rng.random(samples) < (expected - base))).astype(np.int64)
        velocity = walking_kicks(counts, rng)
        summary = heating_summary(heating_paper_beams, samples=samples, seed=seed,
                                  pruned=pruned)
        assert summary.result.projected.tobytes() == velocity.tobytes()
        assert summary.result.mean_cycles == counts.mean()
        assert summary.cycle_report == report

    @pytest.mark.parametrize("fails", [False, True])
    def test_leaves_no_thread_running(self, fails, monkeypatch):
        # the draws run on a pool thread; every thread has ended when the
        # call returns or raises, and an error of the cycle counts is raised
        # only after the slowed draws have ended
        drawn = []

        class SlowDraws:
            def __init__(self, rng):
                self.rng, self.bit_generator = rng, rng.bit_generator

            def integers(self, *args, **kwargs):
                return self.rng.integers(*args, **kwargs)

            def random(self, *args, **kwargs):
                time.sleep(0.05)
                values = self.rng.random(*args, **kwargs)
                drawn.append(threading.current_thread())
                return values

        def cycles(*args, **kwargs):
            if fails:
                raise RuntimeError("cycle counts failed")
            return expected_cycles(*args, **kwargs)

        rng = heating._rng
        monkeypatch.setattr(heating, "_rng", lambda seed, samples: SlowDraws(rng(seed, samples)))
        monkeypatch.setattr(heating, "expected_cycles", cycles)
        before = set(threading.enumerate())
        if fails:
            with pytest.raises(RuntimeError, match="cycle counts failed"):
                heating_summary(ideal_pump_beams(), samples=1_000)
        else:
            heating_summary(ideal_pump_beams(), samples=1_000)
        assert len(drawn) == 1 and drawn[0] is not threading.current_thread()
        assert not drawn[0].is_alive()
        assert set(threading.enumerate()) <= before

    def test_export(self, tmp_path):
        summary = heating_summary(ideal_pump_beams(), samples=5_000, seed=7)
        path = tmp_path / "heating.txt"
        write_heating_summary(summary, path)
        text = path.read_text()
        assert "# delta_vrms_vr=" in text
        assert "v_over_vr,count" in text
        hist_rows = [
            ln for ln in text.splitlines() if ln and not ln.startswith("#")
        ][1:]
        counts = sum(int(r.split(",")[1]) for r in hist_rows)
        assert counts == 5_000
