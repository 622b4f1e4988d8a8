import dataclasses

import numpy as np
import pytest

from nlsparse import (
    Dataset,
    FitConfig,
    InputError,
    LinkFunction,
    SparsityGroundTruth,
    builtin_link,
    invert_link,
    load_dataset_csv,
    solver,
)
from nlsparse.simulate import SimConfig, generate

GRID = np.linspace(-100.0, 100.0, 10_000)


class TestBuiltinLinks:
    def test_paper_values_at_zero(self, paper):
        assert paper.eval(0.0) == 1.0
        assert paper.deriv(0.0) == 2.0
        assert paper.deriv2(0.0) == -1.0

    def test_identity_passthrough(self, identity):
        assert identity.eval(3.7) == 3.7
        assert identity.deriv(3.7) == 1.0
        assert identity.deriv2(-2.0) == 0.0

    def test_paper_slope_bounds(self, paper):
        assert (paper.lower_slope, paper.upper_slope) == (1.0, 4.0)
        assert paper.curvature_bound == 1.0

    def test_unknown_name(self):
        with pytest.raises(InputError, match="unknown link"):
            builtin_link("logit")

    @pytest.mark.parametrize("name", ["identity", "paper"])
    def test_slope_and_curvature_bounds_on_grid(self, name):
        link = builtin_link(name)
        slopes = np.asarray(link.deriv(GRID))
        curv = np.asarray(link.deriv2(GRID))
        assert np.all(slopes >= link.lower_slope)
        assert np.all(slopes <= link.upper_slope)
        assert np.all(np.abs(curv) <= link.curvature_bound)

    @pytest.mark.parametrize("name", ["identity", "paper"])
    def test_derivatives_match_finite_differences(self, name):
        link = builtin_link(name)
        x = np.linspace(-100.0, 100.0, 501)
        h = 1e-6
        fd1 = (np.asarray(link.eval(x + h)) - np.asarray(link.eval(x - h))) / (2 * h)
        fd2 = (np.asarray(link.deriv(x + h)) - np.asarray(link.deriv(x - h))) / (2 * h)
        scale1 = np.maximum(np.abs(np.asarray(link.deriv(x))), 1.0)
        scale2 = np.maximum(np.abs(np.asarray(link.deriv2(x))), 1.0)
        assert np.max(np.abs(fd1 - link.deriv(x)) / scale1) <= 1e-6
        assert np.max(np.abs(fd2 - link.deriv2(x)) / scale2) <= 1e-6

    @pytest.mark.parametrize("name", ["identity", "paper"])
    def test_strictly_increasing_on_grid(self, name):
        link = builtin_link(name)
        values = np.asarray(link.eval(GRID))
        assert np.all(np.diff(values) > 0)

    def test_invalid_slope_bounds_rejected(self):
        with pytest.raises(InputError):
            LinkFunction(
                eval=lambda x: x, deriv=lambda x: x, deriv2=lambda x: x,
                lower_slope=0.0, upper_slope=1.0, curvature_bound=0.0, name="bad",
            )


class TestInvertLink:
    def test_paper_at_one(self, paper):
        assert invert_link(paper, 1.0) == pytest.approx(0.0, abs=1e-10)

    def test_identity(self, identity):
        assert invert_link(identity, -4.2) == -4.2

    def test_round_trip_random_targets(self, paper):
        rng = np.random.default_rng(7)
        y = rng.uniform(-50.0, 50.0, size=1000)
        z = invert_link(paper, y)
        assert np.max(np.abs(np.asarray(paper.eval(z)) - y)) <= 1e-10

    def test_round_trip_on_grid(self, paper):
        y = np.asarray(paper.eval(GRID))
        z = invert_link(paper, y)
        assert np.max(np.abs(np.asarray(paper.eval(z)) - y)) <= 1e-10

    def test_newton_two_cycle_target(self, paper):
        # unguarded Newton alternates between about 8.24 and 14.07 here
        y = 22.36675541792804
        assert abs(paper.eval(invert_link(paper, y)) - y) <= 1e-10

    def test_simulated_responses(self, paper):
        # the baseline experiment's setting; seed 22, trial 1 holds the
        # target above
        for seed in range(25):
            cfg = SimConfig(n=400, d=128, s_star=8, seed=seed)
            for trial in range(2):
                y = generate(cfg, trial)[0].response
                z = invert_link(paper, y)
                assert np.max(np.abs(np.asarray(paper.eval(z)) - y)) <= 1e-10, (seed, trial)

    @pytest.mark.parametrize("name", ["paper", "identity"])
    @pytest.mark.parametrize("y", [1e6, -1e6, 1e7])
    def test_large_targets(self, name, y):
        # above |y| of about 1e5 the float spacing of f(z) exceeds 1e-10
        link = builtin_link(name)
        z = invert_link(link, y)
        assert abs(link.eval(z) - y) <= 4.0 * np.spacing(abs(y))

    def test_non_finite_rejected(self, paper):
        with pytest.raises(InputError):
            invert_link(paper, np.nan)
        with pytest.raises(InputError):
            invert_link(paper, np.inf)

    def test_scalar_in_scalar_out(self, paper):
        assert isinstance(invert_link(paper, 3.0), float)


class TestDataset:
    def test_shape_properties(self):
        ds = Dataset(design=np.ones((4, 3)), response=np.zeros(4))
        assert (ds.n, ds.d) == (4, 3)

    def test_row_mismatch(self):
        with pytest.raises(InputError, match="rows"):
            Dataset(design=np.ones((4, 3)), response=np.zeros(5))

    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            Dataset(design=np.array([[np.inf]]), response=np.array([1.0]))
        with pytest.raises(InputError):
            Dataset(design=np.array([[1.0]]), response=np.array([np.nan]))

    def test_bad_ndim(self):
        with pytest.raises(InputError):
            Dataset(design=np.ones(4), response=np.zeros(4))
        with pytest.raises(InputError):
            Dataset(design=np.ones((4, 2)), response=np.zeros((4, 1)))

    def test_arrays_read_only(self):
        ds = Dataset(design=np.ones((2, 2)), response=np.zeros(2))
        with pytest.raises(ValueError):
            ds.design[0, 0] = 5.0
        with pytest.raises(ValueError):
            ds.response[0] = 5.0

    def test_copies_unless_given_a_read_only_array_it_can_hold(self):
        design, response = np.ones((2, 2)), np.zeros(2)
        ds = Dataset(design=design, response=response)
        design[0, 0] = response[0] = 5.0
        assert ds.design[0, 0] == 1.0 and ds.response[0] == 0.0
        design.flags.writeable = False
        assert Dataset(design=design, response=response).design is design
        view = design[:, :1]
        assert Dataset(design=view, response=response).design is not view


class TestFitConfig:
    def test_defaults_valid(self):
        cfg = FitConfig(lam=0.1)
        assert [f.name for f in dataclasses.fields(FitConfig)] == ["lam", "tol", "max_iter", "init"]
        assert (cfg.tol, cfg.max_iter, cfg.init) == (1e-5, 10_000, None)
        # the line-search constants of the solver, which no option sets
        assert (solver.ETA, solver.ZETA, solver.MEMORY) == (2.0, 1e-5, 5)
        assert (solver.ALPHA_MIN, solver.ALPHA_MAX, solver.MAX_LINESEARCH) == (1e-30, 1e30, 100)

    @pytest.mark.parametrize("kwargs", [
        dict(lam=0.0),
        dict(lam=-1.0),
        dict(lam=0.1, tol=0.0),
        dict(lam=0.1, max_iter=0),
    ])
    def test_invalid_options(self, kwargs):
        with pytest.raises(InputError):
            FitConfig(**kwargs)

    def test_numpy_integer_counts_accepted(self):
        assert FitConfig(lam=0.1, max_iter=np.int32(50)).max_iter == 50


class TestSparsityGroundTruth:
    def test_support_count_enforced(self):
        SparsityGroundTruth(beta_star=np.array([1.0, 0.0, 2.0]), support_size=2)
        with pytest.raises(InputError):
            SparsityGroundTruth(beta_star=np.array([1.0, 0.0, 2.0]), support_size=3)


class TestCsvLoader:
    def test_with_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,x1,x2\n1.5,2.0,3.0\n-0.5,0.0,1.0\n")
        ds = load_dataset_csv(path)
        assert ds.n == 2 and ds.d == 2
        np.testing.assert_array_equal(ds.response, [1.5, -0.5])
        np.testing.assert_array_equal(ds.design, [[2.0, 3.0], [0.0, 1.0]])

    def test_without_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.5,2.0\n-0.5,0.0\n")
        ds = load_dataset_csv(path)
        assert ds.n == 2 and ds.d == 1

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(InputError, match="nope.csv"):
            load_dataset_csv(tmp_path / "nope.csv")

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(InputError, match="row 2"):
            load_dataset_csv(path)

    def test_non_numeric_body(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(InputError, match="not numeric"):
            load_dataset_csv(path)

    @pytest.mark.parametrize("text, match", [
        ("", "is empty"),
        ("\n\n", "is empty"),
        ("y,x1\n", "header but no data rows"),
        ("1.0\n2.0\n", "at least one covariate"),
        ("1.0\n2.0,3.0\n", "at least one covariate"),
        ("y,x1\n1.0,2.0\n\n3.0,4.0,5.0\n", "row 2 has 3 fields, expected 2"),
        ("y,x1\n1.0,2.0\n3.0,oops\n", "row 2 is not numeric"),
        ("1.0,2.0\n# comment,3.0\n", "row 2 is not numeric"),
    ])
    def test_malformed_files_name_the_problem(self, tmp_path, text, match):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(InputError, match=match):
            load_dataset_csv(path)

    def test_values_equal_python_float_parsing(self, tmp_path):
        rng = np.random.default_rng(5)
        values = rng.standard_normal((7, 4)) * 10.0 ** rng.integers(-12, 12, (7, 4))
        cells = [[repr(float(v)) for v in row] for row in values]
        cells[0][1] = '"2.5"'
        cells[1][2] = " -1e-3 "
        path = tmp_path / "d.csv"
        path.write_text("y,x1,x2,x3\r\n" + "\r\n".join(",".join(row) for row in cells) + "\r\n")
        ds = load_dataset_csv(path)
        expected = np.array([[float(c.strip('"')) for c in row] for row in cells])
        np.testing.assert_array_equal(ds.response, expected[:, 0])
        np.testing.assert_array_equal(ds.design, expected[:, 1:])
