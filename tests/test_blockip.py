"""Simple 4-block programs: desk backend, piece sweep, binary search, and
the response-time encoding round trip."""

import dataclasses
import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import recorded_core_brackets, small_task_systems
from rtmix import blockip, counters
from rtmix.blockip import (
    SimpleFourBlock,
    encode_rtc_as_4block,
    solve_2stage_desk,
    solve_simple_4block,
)
from rtmix.core import Task, TaskSystem, bounds_from_parts, ceil_div
from rtmix.errors import (
    BudgetExceeded,
    Infeasible,
    InternalInvariantViolated,
    InvalidInstance,
)
from rtmix.gen import random_system
from rtmix.rta import ResponseQuery, response_bruteforce, response_jitter_free


@pytest.fixture
def pair_system():
    return TaskSystem([Task(1, 2, 0), Task(1, 1, 0)])


def feasible_points(prog):
    """(w^T x, coupling value) of every box point x that meets each brick's
    rows, enumerated directly."""
    s, t = prog.s, prog.t
    for x in itertools.product(*(range(b + 1) for b in prog.u)):
        x0 = x[:s]
        bricks = [x[s + i * t : s + (i + 1) * t] for i in range(prog.n)]
        if any(
            sum(b * v for b, v in zip(prog.B[i][ri], x0))
            + sum(a * v for a, v in zip(prog.A[i][ri], bricks[i]))
            != prog.rhs[i][ri]
            for i in range(prog.n)
            for ri in range(prog.r)
        ):
            continue
        weight = sum(w * v for w, v in zip(prog.w0, x0))
        if prog.j is not None:
            weight += sum(w * v for w, v in zip(prog.wj, bricks[prog.j - 1]))
        value = sum(d * v for d, v in zip(prog.D[0], x0)) + sum(
            c * v for i in range(prog.n) for c, v in zip(prog.C[i][0], bricks[i])
        )
        yield weight, value


def enumerated_decision(prog, k):
    """Max of the coupling row over every feasible point with w^T x <= k (the
    slack row), or None: the dual decision enumerated directly."""
    return max((value for weight, value in feasible_points(prog) if weight <= k), default=None)


@st.composite
def unit_slack_programs(draw, b_max=6):
    """One first-stage variable over a box up to 30 and one or two bricks with
    the row (p, -1): |b| up to b_max, by default 6, so some b exceed p and
    every t ends a piece;
    rhs of both signs; objectives of both signs, with zero brick slope and a
    zero first-stage slope D + sum c_z*b drawn on purpose; brick boxes small
    enough to clip either variable or empty the interval; w0 up to 3; and wj
    zero (the piece-wise first stage) as often as not."""
    n = draw(st.integers(1, 2))
    A, B, C, rhs, u = [], [], [], [], [draw(st.integers(0, 30))]
    for _ in range(n):
        p = draw(st.integers(1, 5))
        c_z = draw(st.integers(-3, 3))
        c_x = draw(st.one_of(st.just(-c_z * p), st.integers(-3, 3)))
        A.append(((p, -1),))
        B.append(((draw(st.integers(-b_max, b_max)),),))
        C.append(((c_x, c_z),))
        rhs.append((draw(st.integers(-12, 12)),))
        u.extend([draw(st.integers(0, 4)), draw(st.integers(0, 4))])
    flat = -sum(c[0][1] * b[0][0] for c, b in zip(C, B))
    return SimpleFourBlock(
        n=n,
        r=1,
        s=1,
        t=2,
        D=((draw(st.one_of(st.just(flat), st.integers(-3, 3))),),),
        C=tuple(C),
        B=tuple(B),
        A=tuple(A),
        b0=0,
        rhs=tuple(rhs),
        w0=(draw(st.integers(0, 3)),),
        j=draw(st.integers(1, n)),
        wj=draw(st.one_of(st.just((0, 0)), st.sampled_from([(1, 0), (0, 1), (2, 1)]))),
        u=tuple(u),
    )


def mirrored(prog):
    """The same program with every brick row negated: row (-p, 1) is not
    unit-slack, so the desk backend enumerates the first stage and completes
    each brick by depth-first search."""
    def neg(rows):
        return tuple(tuple(-v for v in row) for row in rows)

    return dataclasses.replace(
        prog,
        A=tuple(neg(a) for a in prog.A),
        B=tuple(neg(b) for b in prog.B),
        rhs=neg(prog.rhs),
    )


def brick_program(**overrides):
    base = dict(
        n=1,
        r=1,
        s=1,
        t=1,
        D=((1,),),
        C=(((0,),),),
        B=(((0,),),),
        A=(((1,),),),
        b0=0,
        rhs=((3,),),
        w0=(0,),
        j=1,
        wj=(0,),
        u=(5, 5),
    )
    base.update(overrides)
    return SimpleFourBlock(**base)


class TestStructure:
    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidInstance):
            brick_program(A=(((1, 2),),))

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"D": ((1,), (1,))}, "D must be an integer array of shape 1x1"),
            ({"s": 0}, "dimensions must satisfy n,r,t >= 0 and s >= 1"),
            ({"n": -1}, "dimensions must satisfy n,r,t >= 0 and s >= 1"),
            ({"C": ()}, "C must be an integer array of shape 1x1x1"),
            ({"n": 0, "C": (), "B": (), "A": (), "rhs": (), "u": (5,)},
             "j must be None when there are no bricks"),
            ({"j": 2}, "addressed brick j=2 out of range 1..1"),
            ({"j": None}, "addressed brick j=None out of range 1..1"),
            ({"u": (5, -1)}, "box bounds must be nonnegative"),
            ({"D": (5,)}, "D must be an integer array of shape 1x1"),
            ({"rhs": (3,)}, "rhs must be an integer array of shape 1x1"),
            ({"B": ((0,),)}, "B must be an integer array of shape 1x1x1"),
            ({"u": (5, True)}, "u must be an integer array of shape 2"),
            ({"A": (((True,),),)}, "A must be an integer array of shape 1x1x1"),
        ],
        ids=["D-rows", "s-zero", "n-negative", "C-blocks", "j-without-bricks",
             "j-past-n", "j-missing", "negative-box-bound", "D-not-an-array",
             "rhs-row-an-integer", "B-row-an-integer", "bool-u", "bool-A"],
    )
    def test_malformed_program_names_its_fault(self, overrides, message):
        with pytest.raises(InvalidInstance) as exc:
            brick_program(**overrides)
        assert str(exc.value) == message

    def test_lists_and_tuples_build_one_program(self):
        lists = brick_program(D=[[1]], C=[[[0]]], B=[[[0]]], A=[[[1]]], rhs=[[3]], w0=[0],
                              wj=[0], u=[5, 5])
        tuples = brick_program()
        assert lists == tuples and hash(lists) == hash(tuples)
        assert lists.C == (((0,),),) and lists.u == (5, 5)
        # a field given as tuples is kept as it is, not copied
        C = (((0,),),)
        assert brick_program(C=C).C is C

    def test_negative_weights_rejected(self):
        with pytest.raises(InvalidInstance):
            brick_program(w0=(-1,))

    def test_coupling_row_concatenation(self, pair_system):
        # the coupling row is D's row followed by each brick's C row
        prog = encode_rtc_as_4block(pair_system)
        assert prog.D[0] + prog.C[0][0] == (1, -1, 0)
        assert prog.b0 == 1


class TestStitching:
    def test_every_feasible_point_projects_into_the_dual_decision(self, pair_system):
        # the coupling row maximized over every box point of the encoding that
        # meets the brick equality and the slack row w^T x <= k, enumerated
        # directly, is the desk backend's value
        prog = encode_rtc_as_4block(pair_system)
        for k in range(0, 6):
            assert solve_2stage_desk(prog, k) == enumerated_decision(prog, k)

    @given(unit_slack_programs() | unit_slack_programs(b_max=1), st.data())
    @settings(max_examples=400)
    def test_unit_slack_bricks_match_enumeration(self, prog, data):
        # with wj = 0 the first stage extends each piece's left-end value to
        # its best end, and |b| <= 1 makes pieces longer than one t; otherwise
        # it enumerates t and completes every unit-slack brick in closed form,
        # the brick carrying wj with its x bounded by the room k - w0*t.  The
        # mirrored program takes the enumeration and the DFS for every brick.
        k = data.draw(st.integers(-1, prog.w0[0] * prog.u[0] + 3), label="k")
        want = enumerated_decision(prog, k)
        assert solve_2stage_desk(prog, k) == want
        assert solve_2stage_desk(mirrored(prog), k) == want


class TestDeskBackend:
    @given(st.integers(1, 5), st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
           st.integers(-12, 12), st.tuples(st.integers(0, 6), st.integers(0, 6)),
           st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-4, 30))
    @settings(max_examples=400)
    def test_unit_slack_closed_form_matches_the_dfs(self, coef, c, rest, boxes, weights, room):
        # the closed form adds (w_x + w_z*p)*x <= room + w_z*rest to the
        # interval of x; the DFS walks the brick (x, z) with row (p, -1)
        budget = blockip._Budget(10_000)
        want = blockip._max_brick(c, ((coef, -1),), (rest,), boxes, weights, room, budget)
        assert blockip._max_unit_slack(coef, c, rest, boxes, weights, room) == want

    def test_a_slack_brick_enters_only_its_feasible_x(self):
        # row (-7, 1) with rhs -10 leaves z = 7x - 10 in [0, 6] one x, 2, of
        # the box [0, 50]: the root, x = 2 and z = 4, the leaf, are the only
        # nodes, so no other x is entered
        budget = blockip._Budget(10_000)
        assert blockip._max_brick((1, 0), ((-7, 1),), (-10,), (50, 6), (0, 0), 0, budget) == 2
        assert budget.budget - budget.left == 3

    def test_a_row_out_of_reach_cuts_the_root(self):
        # row (0, 1) = 5: x takes no part in it, and z in [0, 2] reaches at
        # most 2, so the root enters no value of x and the brick is
        # infeasible after one node
        budget = blockip._Budget(10_000)
        assert blockip._max_brick((1, 1), ((0, 1),), (5,), (3, 2), (0, 0), 0, budget) is None
        assert budget.budget - budget.left == 1

    def test_forced_equality(self):
        # brick variable pinned by its row x = 3, box [0, 5], maximize x only
        prog = brick_program(D=((0,),), C=(((1,),),))
        assert solve_2stage_desk(prog, 10) == 3

    def test_infeasible_rhs(self):
        prog = brick_program(rhs=((7,),), u=(5, 5))
        assert solve_2stage_desk(prog, 10) is None

    def test_slack_row_restricts_the_addressed_brick(self):
        # objective weight 1 on the brick: w^T x <= k caps the feasible x
        prog = brick_program(D=((0,),), C=(((1,),),), A=(((0,),),), rhs=((0,),), wj=(1,))
        assert solve_2stage_desk(prog, 2) == 2
        assert solve_2stage_desk(prog, 0) == 0

    def test_weighted_brick_stops_at_the_room(self, monkeypatch):
        # x in [0, 1000] with weight 1 and coupling value x >= 3: each probe
        # enumerates x only up to the room k, so the least k, 3, is found in
        # a small budget
        prog = brick_program(
            D=((0,),), C=(((1,),),), A=(((0,),),), b0=3, rhs=((0,),), wj=(1,), u=(5, 1000)
        )
        monkeypatch.setattr(blockip, "DEFAULT_NODE_BUDGET", 100_000)
        assert solve_simple_4block(prog) == 3

    def test_a_brick_wider_than_the_recursion_limit(self):
        # one general brick of 1200 binary variables whose row of ones must
        # sum to 0: the depth-first search runs 1200 variables deep
        width = 1200
        prog = brick_program(t=width, C=((((0,) * width),),), A=((((1,) * width),),),
                             rhs=((0,),), wj=(0,) * width, u=(0,) + (1,) * width)
        assert not blockip.on_piece_path(prog)
        assert solve_simple_4block(prog) == 0

    def test_budget_is_enforced(self, pair_system, monkeypatch):
        prog = encode_rtc_as_4block(pair_system)
        monkeypatch.setattr(blockip, "DEFAULT_NODE_BUDGET", 3)
        with pytest.raises(BudgetExceeded):
            solve_2stage_desk(prog, 2)

    def test_pieces_end_where_either_bound_steps(self):
        # 5x - z = t with z = 0: only t = 0, 5, 10 are feasible, where
        # ceil(t/5) steps but floor(t/5) does not; the slope D = 1 > 0
        # puts each at the right end of its piece
        prog = brick_program(
            t=2, C=(((0, 0),),), B=(((-1,),),), A=(((5, -1),),), rhs=((0,),),
            w0=(1,), wj=(0, 0), u=(12, 4, 0),
        )
        assert solve_2stage_desk(prog, 12) == 10
        assert solve_2stage_desk(prog, 9) == 5

    @given(unit_slack_programs() | unit_slack_programs(b_max=1), st.integers(0, 40))
    @example(brick_program(  # b = 0 beside b = -7 past p = 3: up to three steps at one t
        n=2, t=2, C=(((0, 0),),) * 2, B=(((0,),), ((-7,),)), A=(((3, -1),),) * 2,
        rhs=((1,), (-2,)), wj=(0, 0), u=(40, 4, 4, 4, 2)), 40)
    @settings(max_examples=300)
    def test_pieces_are_the_maximal_runs_of_constant_bounds(self, prog, T):
        # each brick's completion sees t only through its pair (lo, hi); the
        # pieces are exactly the maximal runs of t in [0, T] where no pair moves
        bricks = [(prog.A[i][0][0], prog.B[i][0][0], prog.rhs[i][0], prog.u_brick(i)[1])
                  for i in range(prog.n)]

        def pairs(t):
            return tuple((ceil_div(rhs - b * t, p), (rhs + uz - b * t) // p)
                         for p, b, rhs, uz in bricks)

        runs = [list(run) for _, run in itertools.groupby(range(T + 1), key=pairs)]
        assert list(blockip._pieces(prog, T)) == [(run[0], run[-1]) for run in runs]

    def test_falling_slope_takes_left_ends(self):
        # 5x - z = 2t with z in [0, 4]: x = ceil(2t/5) steps at t = 1, 3, 6,
        # 8, 11, and the value 4x - t falls inside each piece, so the best
        # point, t = 11, is the left end of its piece
        prog = brick_program(
            t=2, D=((-1,),), C=(((4, 0),),), B=(((-2,),),), A=(((5, -1),),), rhs=((0,),),
            wj=(0, 0), u=(12, 5, 4),
        )
        assert solve_2stage_desk(prog, 12) == enumerated_decision(prog, 12) == 9

    def test_no_negative_probe_passes(self):
        # x - z = t with z = 0 and coupling value t: w0 = 0 leaves t free of
        # k, yet y = k - w0*t >= 0 fails at every t when k < 0
        for w0, at_zero in ((0, 3), (1, 0)):
            prog = brick_program(
                t=2, C=(((0, 0),),), B=(((-1,),),), A=(((1, -1),),), rhs=((0,),),
                w0=(w0,), wj=(0, 0), u=(3, 3, 0),
            )
            assert solve_2stage_desk(prog, -1) is None
            assert solve_2stage_desk(prog, 0) == at_zero

    def test_budget_stops_the_pieces_before_they_are_built(self, monkeypatch):
        # p = 1, b = -1: every t in [0, 10**12] ends a piece, so the pieces
        # are spent one by one, never listed first
        prog = brick_program(
            t=2, C=(((0, 0),),), B=(((-1,),),), A=(((1, -1),),), rhs=((0,),),
            wj=(0, 0), u=(10**12, 10**12, 0),
        )
        monkeypatch.setattr(blockip, "DEFAULT_NODE_BUDGET", 1000)
        with counters.collect() as ops, pytest.raises(BudgetExceeded) as exc:
            solve_2stage_desk(prog, 10**12)
        assert exc.value.explored == 1001
        assert ops.blockip_nodes == exc.value.explored  # the spent nodes are counted
        # the sweep too counts what it spent: b0 is out of reach, so it walks
        # every piece until its budget runs out
        with counters.collect() as ops, pytest.raises(BudgetExceeded) as exc:
            blockip._sweep(dataclasses.replace(prog, b0=10**13), 10**12)
        assert ops.blockip_nodes == exc.value.explored == 1001

    def test_first_stage_spends_nodes_only_on_points_with_room(self):
        # wj = (1, 0) leaves the piece path; at k = 0 only t = 0 of the box
        # [0, 66] has room, so the probe spends one node on it and one on each
        # brick's completion, where enumerating the box spent 69
        ts = TaskSystem([Task(15, 65, 0), Task(7, 30, 0), Task(13, 50, 0)])
        prog = dataclasses.replace(encode_rtc_as_4block(ts), wj=(1, 0))
        assert prog.u[0] == 66 and not blockip.on_piece_path(prog)
        with counters.collect() as ops:
            solve_2stage_desk(prog, 0)
        assert ops.blockip_nodes == 3
        assert solve_simple_4block(prog) == 43

    def test_no_first_stage_point_has_room_below_zero(self, monkeypatch):
        # a zero first-stage weight leaves t's range whole, but no point has
        # room at k < 0: the probe enters none of the 10**12 + 1 points
        monkeypatch.setattr(blockip, "DEFAULT_NODE_BUDGET", 1000)
        prog = brick_program(u=(10**12, 5))
        assert not blockip.on_piece_path(prog)
        with counters.collect() as ops:
            assert solve_2stage_desk(prog, -1) is None
        assert ops.blockip_nodes == 0

    def test_the_budget_bounds_a_first_stage_of_many_variables(self, monkeypatch):
        # s first-stage variables of weight w at k = 2, each in [0, box]
        def first_stage(s, w=1, box=2):
            return brick_program(n=0, r=0, s=s, t=0, D=((1,) * s,), C=(), B=(), A=(), rhs=(),
                                 w0=(w,) * s, j=None, wj=(), u=(box,) * s)

        # with s = 40 each variable reaches 2 on its own room, so the box
        # holds 3**40 points, but the odometer enters only the C(42, 2) = 861
        # with room in total, one node each
        with counters.collect() as ops:
            assert solve_2stage_desk(first_stage(40), 2) == 2
        assert ops.blockip_nodes == math.comb(42, 2) == 861
        # with s = 2, (0..2) x (0..2) holds 9 points, 6 of them with room
        with counters.collect() as ops:
            assert solve_2stage_desk(first_stage(2), 2) == 2
        assert ops.blockip_nodes == 6
        # a budget below 861 stops the walk after budget + 1 nodes, also with
        # 1500 variables, which the odometer walks with no recursion, and with
        # two zero-weight variables whose box of (10**12 + 1)**2 points all
        # have room (one variable alone would take the piece path)
        monkeypatch.setattr(blockip, "DEFAULT_NODE_BUDGET", 500)
        for prog in (first_stage(40), first_stage(1500), first_stage(2, w=0, box=10**12)):
            assert not blockip.on_piece_path(prog)
            with counters.collect() as ops, pytest.raises(BudgetExceeded) as exc:
                solve_2stage_desk(prog, 2)
            assert ops.blockip_nodes == exc.value.explored == 501

    def test_encoding_spends_nodes_per_piece(self):
        # the encoding's first stage visits one end of each piece of t, where
        # no ceil(t/p_i) steps: at most (n + 1)(1 + sum_i ceil(T/p_i)) nodes
        # per probe, T = min(u, k), against (n + 1)(T + 1) + 1 for every t
        ts = random_system(3, 4, 1024, jitter_mode="zero")
        prog = encode_rtc_as_4block(ts)
        for k in (0, prog.u[0] // 3, prog.u[0]):
            with counters.collect() as ops:
                solve_2stage_desk(prog, k)
            T = min(prog.u[0], k)
            pieces = 1 + sum(ceil_div(T, task.p) for task in ts.tasks[:-1])
            assert ops.as_dict()["blockip_nodes"] <= (prog.n + 1) * pieces

    def test_transformation_preserves_the_projected_feasible_set(self):
        # enumerate the original dual decision directly and compare with the
        # backend, which bounds the brick's weight by the room k
        prog = brick_program(D=((0,),), C=(((1,),),), A=(((2,),),), rhs=((4,),), wj=(1,), u=(3, 4))
        for k in range(0, 6):
            # original: max x s.t. 2x = 4, x in [0, 4], wj.x <= k
            direct = max(
                (x for x in range(5) if 2 * x == 4 and x <= k),
                default=None,
            )
            via_slack = solve_2stage_desk(prog, k)
            assert via_slack == direct


class TestBinarySearch:
    def test_pair_round_trip(self, pair_system):
        prog = encode_rtc_as_4block(pair_system)
        assert solve_simple_4block(prog) == 2

    def test_infeasible_when_h_window_misses(self, pair_system):
        prog = encode_rtc_as_4block(pair_system)
        with pytest.raises(Infeasible):
            solve_simple_4block(prog, H=1)

    def test_bisection_infeasible_when_h_window_misses(self, pair_system, monkeypatch):
        # the mirrored encoding leaves the piece path, so one `core.bracket`
        # over [0, H + 1] returns H + 1 and the solver refuses it; the desk
        # is probed only at the bracket's midpoints, never at H on its own
        # or outside [0, H]
        prog = mirrored(encode_rtc_as_4block(pair_system))
        assert not blockip.on_piece_path(prog)
        desk, probed = blockip.solve_2stage_desk, []
        monkeypatch.setattr(
            blockip, "solve_2stage_desk", lambda p, k: probed.append(k) or desk(p, k)
        )
        with recorded_core_brackets() as searches, pytest.raises(Infeasible) as exc:
            solve_simple_4block(prog, H=1)
        assert str(exc.value) == "no objective value in [0, 1] satisfies the coupling bound"
        [(name, lo, hi, midpoints)] = searches
        assert name.startswith("_bisect.") and (lo, hi) == (0, 2)
        assert probed == midpoints and all(0 <= k <= 1 for k in probed)

    def test_zero_objective_feasible_at_zero(self):
        prog = brick_program()
        assert solve_simple_4block(prog, H=4) == 0

    def test_monotone_decision_in_k(self, pair_system):
        prog = encode_rtc_as_4block(pair_system)
        values = []
        for k in range(0, 6):
            v = solve_2stage_desk(prog, k)
            values.append(-(10**9) if v is None else v)
        assert values == sorted(values)


    # the encoding of (c, p) = (1, 4), (2, 6), (1, 12), whose least k is 4, on
    # the piece path and mirrored onto the bisection, with a search bound and
    # a weight past sys.maxsize
    @pytest.mark.parametrize(
        "mirror, w0, H, want",
        [
            (False, 1, 10**20, 4),
            (False, 10**30, None, 4 * 10**30),
            (True, 1, 10**20, 4),
            (True, 10**30, None, 4 * 10**30),
        ],
        ids=["sweep-huge-H", "sweep-huge-w0", "bisection-huge-H", "bisection-huge-w0"],
    )
    def test_takes_any_integer_bound_and_weight(self, mirror, w0, H, want):
        prog = encode_rtc_as_4block(TaskSystem([Task(1, 4, 0), Task(2, 6, 0), Task(1, 12, 0)]))
        prog = dataclasses.replace(mirrored(prog) if mirror else prog, w0=(w0,))
        assert blockip.on_piece_path(prog) is not mirror
        assert solve_simple_4block(prog, H) == want


    @given(small_task_systems(max_n=3, p_max=8, min_n=2))
    @example(TaskSystem([Task(2, 6, 1, 6), Task(5, 8, 0, 8), Task(5, 5, 0, 5)]))
    @settings(max_examples=40)
    def test_the_bisection_probes_at_most_log2_of_its_window(self, ts):
        # the mirrored encoding leaves the piece path for `_bisect`: one
        # `core.bracket` over [0, H + 1] probes at most ceil(log2(H + 2))
        # times.  Two tasks or more, since one has no brick to mirror.  The
        # example's mirrored bricks stay within the deadline only while the
        # DFS enters no value that leaves a row out of reach
        prog = mirrored(encode_rtc_as_4block(ts))
        assert not blockip.on_piece_path(prog)
        want = response_bruteforce(ResponseQuery(ts.tasks[:-1], ts.tasks[-1].c))
        with recorded_core_brackets() as searches:
            assert solve_simple_4block(prog) == want
        [(name, lo, hi, probes)] = searches
        assert name.startswith("_bisect.") and lo == 0
        assert len(probes) <= hi.bit_length(), (hi, probes)


class TestPieceSweep:
    @given(unit_slack_programs() | unit_slack_programs(b_max=1), st.data())
    @settings(max_examples=300)
    def test_least_k_matches_enumeration(self, prog, data):
        # w0 = 0, sigma <= 0 and empty brick intervals come with the programs,
        # and |b| <= 1 makes pieces longer than one t; b0 runs over every
        # feasible point's value, so it is often first reached inside a piece,
        # and over one free draw, often past every value; H often falls below
        # w0*t*
        prog = dataclasses.replace(prog, wj=(0, 0))
        points = list(feasible_points(prog))
        H = data.draw(st.integers(0, prog.w0[0] * prog.u[0] + 3), label="H")
        free = data.draw(st.integers(-20, 20), label="b0")
        for b0 in sorted({value for _, value in points} | {free}):
            case = dataclasses.replace(prog, b0=b0)
            # `enumerated_decision` at k reaches b0 iff some feasible point of
            # weight <= k does, so the least such k is the least of their weights
            least = min((w for w, v in points if v >= b0), default=None)
            if least is None or least > H:
                with pytest.raises(Infeasible):
                    solve_simple_4block(case, H)
            else:
                assert solve_simple_4block(case, H) == least, b0

    def test_one_probe_and_no_more_nodes_than_the_bisection(self, monkeypatch):
        # each solve makes one certificate probe, where bisection makes about
        # log2(H + 2); the sweep visits no more pieces than one probe at H,
        # and with its certificate spends no more than the whole bisection
        desk = blockip.solve_2stage_desk
        probes = []  # the nodes of each probe, kept apart from the caller's

        def counted(p, k):
            with counters.collect() as ops:
                value = desk(p, k)
            probes.append(ops.blockip_nodes)
            return value

        monkeypatch.setattr(blockip, "solve_2stage_desk", counted)
        for seed in range(1, 201):
            prog = encode_rtc_as_4block(random_system(seed, 3, 16, jitter_mode="zero"))
            H = blockip._default_objective_bound(prog)
            probes.clear()
            blockip.solve_2stage_desk(prog, H)
            [at_h] = probes
            probes.clear()
            want = blockip._bisect(prog, H)
            bisection = sum(probes)
            probes.clear()
            with counters.collect() as sweep:
                assert solve_simple_4block(prog) == want, seed
            assert len(probes) == 1, seed
            assert sweep.blockip_nodes <= at_h and probes[0] <= at_h, seed
            assert sweep.blockip_nodes + probes[0] <= bisection, seed

    def test_sweep_answer_is_certified(self, pair_system, monkeypatch):
        monkeypatch.setattr(blockip, "solve_2stage_desk", lambda p, k: None)
        with pytest.raises(InternalInvariantViolated):
            solve_simple_4block(encode_rtc_as_4block(pair_system))


class TestRtcRoundTrip:
    def test_demo_variant_with_jitter_cleared(self):
        ts = TaskSystem([Task(15, 65, 0), Task(7, 30, 0), Task(13, 50, 0)])
        prog = encode_rtc_as_4block(ts)
        u = bounds_from_parts(ts.tasks[-1].c, ts.tasks[:-1]).u
        got = solve_simple_4block(prog, H=u)
        want = response_jitter_free(ResponseQuery(ts.tasks[:2], 13))
        assert got == want == 42

    def test_single_task(self):
        prog = encode_rtc_as_4block(TaskSystem([Task(3, 7, 0)]))
        assert solve_simple_4block(prog) == 3

    def test_round_trips_jitter(self):
        # brick rows p*x - t - z = jitter: the multiplier is ceil((t + 1)/4)
        ts = TaskSystem([Task(1, 4, 1), Task(1, 4, 0)])
        prog = encode_rtc_as_4block(ts)
        assert prog.rhs == ((1,),) and prog.u[1] == ceil_div(prog.u[0] + 1 + 4, 4)
        assert blockip.on_piece_path(prog)
        assert solve_simple_4block(prog) == response_bruteforce(ResponseQuery(ts.tasks[:1], 1)) == 2

    @given(small_task_systems())
    def test_jittered_round_trip_matches_the_fixed_point(self, ts):
        want = response_bruteforce(ResponseQuery(ts.tasks[:-1], ts.tasks[-1].c))
        prog = encode_rtc_as_4block(ts)
        assert blockip.on_piece_path(prog)
        assert solve_simple_4block(prog) == want

    @pytest.mark.parametrize("jitter_mode", ["upto-p", "zero"])
    def test_round_trips_with_an_interferer_lcm_past_the_default_cap(self, jitter_mode):
        # six tasks with periods up to 2**16: the lcm is not capped, only S
        draws = (random_system(seed, 6, 2**16, jitter_mode=jitter_mode) for seed in range(12))
        big = [ts for ts in draws if math.lcm(*ts.periods()[:-1]) > 2**63][:6]
        assert len(big) == 6
        for ts in big:
            q = ResponseQuery(ts.tasks[:-1], ts.tasks[-1].c)
            assert solve_simple_4block(encode_rtc_as_4block(ts)) == response_bruteforce(q)

    def test_seeded_round_trips(self):
        for seed in range(30):
            ts = random_system(
                seed + 77,
                random.Random(seed).randint(1, 3),
                12,
                jitter_mode="zero",
                require_schedulable=True,
            )
            q = ResponseQuery(ts.tasks[:-1], ts.tasks[-1].c)
            want = response_jitter_free(q)
            u = bounds_from_parts(ts.tasks[-1].c, ts.tasks[:-1]).u
            assert solve_simple_4block(encode_rtc_as_4block(ts), H=u) == want

    def test_seeded_round_trips_at_scale(self):
        # four to six tasks with periods up to 64: first-stage ranges up to about 500
        for seed in range(30):
            n = 4 + seed % 3
            ts = random_system(seed + 500, n, 64, jitter_mode="zero", require_schedulable=True)
            q = ResponseQuery(ts.tasks[:-1], ts.tasks[-1].c)
            assert solve_simple_4block(encode_rtc_as_4block(ts)) == response_jitter_free(q)

    def test_round_trips_against_the_fixed_point_at_scale(self):
        # four to eight tasks, periods up to 2^10, harmonic and not, checked
        # against the fixed-point iteration: first-stage ranges run to thousands
        for n in range(4, 9):
            for p_max in (2**7, 2**10):
                for harmonic in (False, True):
                    for seed in range(2):
                        ts = random_system(
                            1000 * n + 10 * seed + harmonic, n, p_max,
                            harmonic=harmonic, jitter_mode="zero",
                        )
                        q = ResponseQuery(ts.tasks[:-1], ts.tasks[-1].c)
                        got = solve_simple_4block(encode_rtc_as_4block(ts))
                        assert got == response_bruteforce(q), (n, p_max, harmonic, seed)
