import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pcbdet.geometry import (
    Dataset,
    SHAPE_NAMES,
    ball_points,
    cloud_distances,
    generate_shape,
    load_dataset,
    normalize_cloud,
    point_to_cloud_distance,
    save_dataset,
)
from tests.oracles import distance_to_cloud, full_scan_distances, line_by_line_load_dataset, point_to_cloud

finite_coords = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)


def clouds(min_points=1, max_points=12):
    return hnp.arrays(
        np.float64,
        st.tuples(st.integers(min_points, max_points), st.just(3)),
        elements=finite_coords,
    )


class TestDistance:
    def test_single_point_pythagoras(self):
        assert point_to_cloud_distance([0, 0, 0], [[3, 4, 0]]) == 5.0

    def test_coincident_point(self):
        assert point_to_cloud_distance([1, 1, 1], [[1, 1, 1], [2, 2, 2]]) == 0.0

    def test_minimum_over_three(self):
        X = [[1, 0, 0], [0, 2, 0], [0, 0, 3]]
        assert point_to_cloud_distance([0, 0, 0], X) == 1.0

    def test_empty_cloud_rejected(self):
        with pytest.raises(ValueError):
            point_to_cloud_distance([0, 0, 0], np.empty((0, 3)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            point_to_cloud_distance([np.nan, 0, 0], [[1, 2, 3]])
        with pytest.raises(ValueError):
            point_to_cloud_distance([0, 0, 0], [[np.inf, 2, 3]])

    @given(clouds(min_points=1), hnp.arrays(np.float64, (3,), elements=finite_coords),
           hnp.arrays(np.float64, (3,), elements=finite_coords))
    def test_monotone_under_insertion(self, X, c, y):
        bigger = np.vstack([X, y[None, :]])
        assert point_to_cloud_distance(c, bigger) <= point_to_cloud_distance(c, X)

    @given(clouds(min_points=2), hnp.arrays(np.float64, (3,), elements=finite_coords),
           st.randoms(use_true_random=False))
    def test_permutation_invariant(self, X, c, rnd):
        perm = list(range(len(X)))
        rnd.shuffle(perm)
        assert point_to_cloud_distance(c, X[perm]) == point_to_cloud_distance(c, X)


class TestDistanceGradient:
    def test_unit_direction_away_from_nearest(self):
        np.testing.assert_array_equal(distance_to_cloud([2, 0, 0], [[0, 0, 0]])[1], [1, 0, 0])

    def test_coincidence_convention_zero(self):
        np.testing.assert_array_equal(distance_to_cloud([1, 1, 1], [[1, 1, 1]])[1], [0, 0, 0])

    def test_tie_breaks_to_lowest_index(self):
        g = distance_to_cloud([0, 0, 0], [[1, 0, 0], [-1, 0, 0]])[1]
        np.testing.assert_array_equal(g, [-1, 0, 0])

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        checked = 0
        while checked < 50:
            X = rng.normal(size=(rng.integers(2, 9), 3))
            c = rng.normal(size=3)
            d = point_to_cloud_distance(c, X)
            d2 = np.sum((X - c) ** 2, axis=1)
            gap = np.sort(np.sqrt(d2))
            # Only probe where the nearest point is unique and well separated.
            if d < 1e-3 or (len(gap) > 1 and gap[1] - gap[0] < 1e-3):
                continue
            h = 1e-5
            fd = np.empty(3)
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                fd[j] = (
                    point_to_cloud_distance(c + e, X) - point_to_cloud_distance(c - e, X)
                ) / (2 * h)
            g = distance_to_cloud(c, X)[1]
            assert np.linalg.norm(g - fd) <= 1e-4 * max(1.0, np.linalg.norm(fd))
            checked += 1


class TestCloudDistances:
    """The one nearest-point kernel against the brute-force oracle."""

    def assert_matches_oracle(self, points, cloud_list, units_too=True):
        dists, units = cloud_distances(points, cloud_list)
        assert dists.shape == (len(points), len(cloud_list)) and units.shape == (len(points), len(cloud_list), 3)
        for p, c in enumerate(points):
            for m, X in enumerate(cloud_list):
                d, u = point_to_cloud(c, X)
                assert dists[p, m] == pytest.approx(d, rel=1e-12, abs=1e-150)
                if units_too:
                    np.testing.assert_allclose(units[p, m], u, rtol=1e-12, atol=1e-15)

    def test_matches_oracle(self):
        rng = np.random.default_rng(7)
        points = rng.normal(size=(6, 3)) * 2
        self.assert_matches_oracle(points, [rng.normal(size=(n, 3)) for n in (1, 5, 40)])

    def test_lowest_index_wins_a_tie(self):
        points = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
        X = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        _, units = cloud_distances(points, [X])
        np.testing.assert_array_equal(units[0, 0], [-1.0, 0.0, 0.0])
        assert point_to_cloud(points[0], X)[1] == [-1.0, 0.0, 0.0]
        self.assert_matches_oracle(points, [X])

    def test_coincident_point_has_zero_direction(self):
        X = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        points = np.array([[4.0, 5.0, 6.0], [1.0, 2.0, 3.0 + 1e-13], [1.0, 2.0, 3.5]])
        dists, units = cloud_distances(points, [X])
        np.testing.assert_array_equal(units[:2, 0], np.zeros((2, 3)))
        np.testing.assert_array_equal(units[2, 0], [0.0, 0.0, 1.0])
        assert dists[0, 0] == 0.0
        self.assert_matches_oracle(points, [X])

    def test_stacked_form_matches_oracle(self):
        # Two problems, each pairing its own 3 points with its own 2 clouds.
        # Problem 0's first point ties between two points of its first cloud;
        # two of problem 1's points lie on (or within COINCIDENT_EPS of) a
        # point of its first cloud.
        rng = np.random.default_rng(11)
        points = np.array([
            [[0.0, 0.0, 0.0], [0.3, -0.2, 0.5], [2.0, 1.0, -1.0]],
            [[4.0, 5.0, 6.0], [1.0, 2.0, 3.0 + 1e-13], [0.0, 0.0, 2.0]],
        ])
        clouds = [
            np.stack([
                [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [0.0, 0.0, 0.0]],
            ]),
            rng.normal(size=(2, 5, 3)),
        ]
        dists, units = cloud_distances(points, clouds)
        assert dists.shape == (2, 3, 2) and units.shape == (2, 3, 2, 3)
        for p in range(2):
            for r in range(3):
                for m, X in enumerate(clouds):
                    d, u = point_to_cloud(points[p, r], X[p])
                    assert dists[p, r, m] == pytest.approx(d, rel=1e-12, abs=1e-150)
                    np.testing.assert_allclose(units[p, r, m], u, rtol=1e-12, atol=1e-15)
            # Each problem's slice is the bits of its own unstacked call.
            alone = cloud_distances(points[p], [X[p] for X in clouds])
            assert dists[p].tobytes() == alone[0].tobytes() and units[p].tobytes() == alone[1].tobytes()
        np.testing.assert_array_equal(units[0, 0, 0], [-1.0, 0.0, 0.0])
        np.testing.assert_array_equal(units[1, :2, 0], np.zeros((2, 3)))
        assert dists[1, 0, 0] == 0.0

    @given(st.lists(hnp.arrays(np.float64, (3,), elements=finite_coords), min_size=1, max_size=4),
           st.lists(clouds(min_points=1, max_points=8), min_size=1, max_size=3))
    def test_property_matches_oracle(self, points, cloud_list):
        points = np.array(points)
        self.assert_matches_oracle(points, cloud_list, units_too=False)
        _, units = cloud_distances(points, cloud_list)
        for p, c in enumerate(points):
            for m, X in enumerate(cloud_list):
                # Directions are compared where the nearest distinct point is
                # clearly nearest: the oracle's correctly rounded distances may
                # break a near-tie differently from the squared sums.
                gaps = sorted(math.dist(c, x) for x in {tuple(x) for x in X})
                if len(gaps) == 1 or gaps[1] - gaps[0] > 1e-9 * max(1.0, gaps[0]):
                    np.testing.assert_allclose(units[p, m], point_to_cloud(c, X)[1], rtol=1e-12, atol=1e-12)


# Coordinates from a small grid make exact ties; the scales put points where
# the screen's squares are huge (1e29, as diverged search restarts reach) or
# overflow (1e200).
tie_coords = st.one_of(finite_coords, st.sampled_from([-1.0, 0.0, 0.5, 1.0]))
scales = st.sampled_from([1.0, 1e29, 1e200])


@st.composite
def distance_calls(draw):
    """Arguments of one cloud_distances call, in the shared form (points
    (R, 3)) or the stacked form (points (P, R, 3)), with 1-3 clouds of their
    own sizes, duplicated points and query points on a cloud."""
    lead = draw(st.sampled_from([(), (1,), (3,)]))

    def block(n):
        pts = draw(hnp.arrays(np.float64, lead + (n, 3), elements=tie_coords))
        return pts * draw(hnp.arrays(np.float64, lead + (n, 1), elements=scales))

    points = block(draw(st.integers(1, 5)))
    cloud_list = [block(n) for n in draw(st.lists(st.integers(1, 8), min_size=1, max_size=3))]
    for X in cloud_list:
        if X.shape[-2] > 1 and draw(st.booleans()):
            X[..., -1, :] = X[..., 0, :]
    if draw(st.booleans()):
        points[..., 0, :] = cloud_list[0][..., -1, :]
    return points, cloud_list


class TestScreenedKernel:
    """cloud_distances against the full scan it replaced: the same bits."""

    def assert_bits_equal(self, points, cloud_list):
        with np.errstate(over="ignore", invalid="ignore"):
            got = cloud_distances(points, cloud_list)
            want = full_scan_distances(points, cloud_list)
        for a, b in zip(got, want):
            assert a.shape == b.shape and np.array_equal(a, b) and a.tobytes() == b.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(distance_calls())
    def test_bit_equal_to_full_scan(self, call):
        self.assert_bits_equal(*call)

    def test_screened_and_full_scan_rows_in_one_call(self):
        # Two problems, each with its own 1024-point cloud (a sphere and a
        # cube scaled by 3) whose first two points are moved to +-e_x. The
        # query at the origin ties between them, and at 1e200 the squared
        # distances overflow (so does the tolerance): both run the full scan.
        # The queries near the surface have one clearly nearest point and
        # take the screen's pick.
        X = np.stack([3 * generate_shape(k, 1024, seed=k) for k in range(2)])
        X[:, 0], X[:, 1] = [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]
        rng = np.random.default_rng(5)
        points = np.concatenate(
            [np.zeros((2, 1, 3)), np.full((2, 1, 3), 1e200), 3.2 * rng.normal(size=(2, 6, 3))], axis=1
        )
        self.assert_bits_equal(points, [X])
        _, units = cloud_distances(points, [X])
        np.testing.assert_array_equal(units[:, 0, 0], [[-1.0, 0.0, 0.0]] * 2)  # lowest index wins
        # The shared form over the first problem's cloud.
        self.assert_bits_equal(points[0], [X[0], X[0, :7]])

    def test_near_tie_that_the_full_scan_rounds_to_a_tie(self):
        # At 1e8 from the cloud the two squared distances, 1e16 + 1 and
        # 1e16 + 0.25, round to one float, so the full scan takes index 0,
        # while the scores, 1 and 0.25, are exact and distinct. Only a
        # tolerance scaled by (|c| + max|x|)^2 sees the tie.
        points = np.array([[1e8, 0.0, 0.0]])
        X = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.5]])
        self.assert_bits_equal(points, [X])
        np.testing.assert_array_equal(cloud_distances(points, [X])[1][0, 0], [1.0, 0.0, -1e-8])


class TestNormalize:
    def test_center_then_scale(self):
        out = normalize_cloud([[1, 1, 1], [3, 3, 3]])
        s = 1 / math.sqrt(3)
        np.testing.assert_allclose(out, [[-s, -s, -s], [s, s, s]], atol=1e-12)

    def test_degenerate_scale_skipped(self):
        np.testing.assert_array_equal(normalize_cloud([[5, 5, 5]]), [[0, 0, 0]])

    def test_identity_when_already_normalized(self):
        X = np.array([[1.0, 0, 0], [-1.0, 0, 0]])
        np.testing.assert_allclose(normalize_cloud(X), X, atol=1e-12)

    @given(clouds(min_points=2))
    def test_idempotent(self, X):
        once = normalize_cloud(X)
        twice = normalize_cloud(once)
        np.testing.assert_allclose(twice, once, atol=1e-9)

    @given(clouds(min_points=2))
    def test_postconditions(self, X):
        out = normalize_cloud(X)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-9)
        maxnorm = np.linalg.norm(out, axis=1).max()
        assert maxnorm <= 1 + 1e-9
        pre = X - X.mean(axis=0)
        if np.linalg.norm(pre, axis=1).max() >= 1e-9:
            assert maxnorm == pytest.approx(1.0, abs=1e-9)


class TestGenerateShape:
    def test_deterministic(self):
        a = generate_shape(0, 256, seed=7)
        b = generate_shape(0, 256, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = generate_shape(0, 256, seed=7)
        b = generate_shape(0, 256, seed=8)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_sphere_norms_and_centroid(self, seed):
        X = generate_shape(0, 256, seed=seed)
        norms = np.linalg.norm(X, axis=1)
        # Jitter sigma = 0.02; normalized sphere points stay within a few
        # sigma of the unit radius.
        assert norms.min() >= 1 - 3 * 0.02 * 4
        assert norms.max() <= 1 + 1e-9
        assert np.linalg.norm(X.mean(axis=0)) <= 1e-9

    def test_cube_bounds(self):
        X = generate_shape(1, 128, seed=1)
        assert X.shape == (128, 3)
        assert np.abs(X).max() <= 1.0

    def test_every_family_produces_normalized_clouds(self):
        for cid in range(len(SHAPE_NAMES)):
            X = generate_shape(cid, 64, seed=5)
            assert X.shape == (64, 3)
            assert np.linalg.norm(X, axis=1).max() == pytest.approx(1.0, abs=1e-9)

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError):
            generate_shape(len(SHAPE_NAMES), 64, seed=0)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            generate_shape(0, 8, seed=0)

    def test_families_in_class_order(self):
        assert SHAPE_NAMES == ("sphere", "cube", "cylinder", "cone", "torus", "pyramid", "planes", "helix")


class TestBallPoints:
    def test_uniform_in_unit_ball(self):
        r = np.linalg.norm(ball_points(np.random.default_rng(0), 20000), axis=1)
        assert r.max() <= 1.0
        # Uniform in volume: an eighth of the points lie within radius 1/2.
        assert np.mean(r <= 0.5) == pytest.approx(0.125, abs=0.01)

    def test_draw_order(self):
        # All directions (normal draws, normalized) first, then all radii.
        rng = np.random.default_rng(7)
        dirs = rng.normal(size=(5, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        want = dirs * rng.uniform(size=(5, 1)) ** (1.0 / 3.0)
        np.testing.assert_array_equal(ball_points(np.random.default_rng(7), 5), want)


# Point-line tokens: numbers in the forms float() reads, and near misses that
# it rejects; a line holds at most one near miss.
number_tokens = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(min_value=-2, max_value=2).map(lambda v: f"{v:.9g}"),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:+.17e}"),
    st.sampled_from(["nan", "-inf", "Infinity", "1e400", "-1e-400", "1_0", ".5", "5.", "+.5e-3"]),
)
near_misses = st.sampled_from(["0x1", "1d0", "1,5", "#1", "x", "--1", "1e", "1__0", "\x00"])
separators = st.sampled_from([" ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x1f"])


@st.composite
def dataset_texts(draw):
    """Dataset files whose records mostly parse. A header may give a label
    outside [0, 3) or another point count than follows; a record's lines
    mostly hold one number of tokens, 3 or else 2 or 4, but some hold 0, 2,
    3 or 4. Some files end early, after any line, a header too."""
    out = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 5))
        label = draw(st.sampled_from([0, 1, 2] * 3 + [-1, 3]))
        out.append(f"{label} {draw(st.sampled_from([n] * 6 + [n - 1, n + 1]))}")
        width = draw(st.sampled_from([3, 3, 3, 2, 4]))
        for _ in range(n):
            count = draw(st.sampled_from([width] * 6 + [0, 2, 3, 4]))
            tokens = [draw(number_tokens) for _ in range(count)]
            if count and draw(st.integers(0, 9)) == 0:
                tokens[draw(st.integers(0, count - 1))] = draw(near_misses)
            line = "".join(t + draw(separators) for t in tokens)
            out.append(draw(st.sampled_from(["", " ", "\t"])) + line)
    if draw(st.integers(0, 3)) == 0:
        out = out[: draw(st.integers(1, len(out)))]
    return "\n".join(out) + draw(st.sampled_from(["", "\n", "\n\n"]))


def load_outcome(load, path):
    try:
        ds = load(path, 3)
    except ValueError as exc:
        return str(exc)
    return list(ds.labels), [X.tobytes() for X in ds.clouds], [X.shape for X in ds.clouds]


@pytest.fixture(scope="module")
def text_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("datasets")


class TestDatasetIO:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(text=dataset_texts())
    def test_same_as_line_by_line_parse(self, text_dir, text):
        # The same arrays bit for bit, or the same error naming the same line.
        path = text_dir / "split.txt"
        path.write_text(text, encoding="ascii")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # nor a warning on the way
            assert load_outcome(load_dataset, path) == load_outcome(line_by_line_load_dataset, path)

    def test_generated_split_same_as_line_by_line_parse(self, tmp_path):
        ds = Dataset(clouds=[generate_shape(k % 8, 256, k) for k in range(16)], labels=np.arange(16) % 8,
                     num_classes=8)
        path = tmp_path / "split.txt"
        save_dataset(ds, path)
        got, want = load_dataset(path, 8), line_by_line_load_dataset(path, 8)
        assert [X.tobytes() for X in got.clouds] == [X.tobytes() for X in want.clouds]

    def test_round_trip(self, tmp_path):
        ds = Dataset(
            clouds=[generate_shape(0, 32, 1), generate_shape(1, 48, 2)],
            labels=np.array([0, 1]),
            num_classes=2,
        )
        p = tmp_path / "split.txt"
        save_dataset(ds, p)
        back = load_dataset(p, 2)
        assert back.num_classes == 2
        assert list(back.labels) == [0, 1]
        for a, b in zip(ds.clouds, back.clouds):
            np.testing.assert_allclose(a, b, rtol=1e-8)

    def test_nine_digit_stability(self, tmp_path):
        ds = Dataset(clouds=[generate_shape(2, 20, 9)], labels=np.array([0]), num_classes=1)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_dataset(ds, p1)
        save_dataset(load_dataset(p1, 1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_label_validation(self):
        with pytest.raises(ValueError):
            Dataset(clouds=[np.zeros((4, 3))], labels=np.array([5]), num_classes=2)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("0 3\n0 0 0\n1 1 1\n", 4),  # truncated record: the file ends early
            ("0 3\n0 0 0\n1 1 1", 4),  # same, without a final newline
            ("0 1\n0 0 0\n0 2", 4),  # a header on the last line, no final newline
            ("0 2\n", 2),  # a header and no point line at all
            ("0 2\n0 0 0\n1 2\n", 3),  # a 2-coordinate row
            ("0 2\n0 0 0\n1 2 x\n", 3),  # not a number
            ("0 2\n0 0 0\n1 nan 1\n", 3),
            ("0 1\n0 0 0\n1 1\n-inf 0 0\n", 4),
            ("0 2\n0 0 0\n1 2 3 4\n", 3),  # a 4-coordinate row
            ("0 2\n0 0 0 #\n1 2 3 #c\n", 2),  # no comments
            ("0 2 7\n0 0 0\n0 0 0\n", 1),  # bad record header
            ("0 0\n", 1),  # empty record
        ],
    )
    def test_malformed_file_names_file_and_line(self, tmp_path, text, line):
        p = tmp_path / "split.txt"
        p.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{p}: line {line}:")):
            load_dataset(p, 2)

    @pytest.mark.parametrize(
        "text, num_classes, line",
        [
            ("0 1\n0 0 0\n2 1\n0 0 0\n", 2, 3),
            ("1 1\n0 0 0\n-1 1\n0 0 0\n", 2, 3),
            ("-1 1\n0 0 0\n", 2, 1),
            ("100000000000000000000000000000 1\n0 0 0\n", 2, 1),  # beyond int64
        ],
    )
    def test_label_out_of_range_names_file_and_line(self, tmp_path, text, num_classes, line):
        p = tmp_path / "split.txt"
        p.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{p}: line {line}: label")):
            load_dataset(p, num_classes)

    def test_non_ascii_byte_names_file_and_line(self, tmp_path):
        p = tmp_path / "split.txt"
        p.write_bytes(b"0 2\n0 0 0\n0 \xe9 0\n")
        with pytest.raises(ValueError, match=re.escape(f"{p}: line 3:")):
            load_dataset(p, 1)
