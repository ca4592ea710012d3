import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qminority
import reference
from qminority import channels, game, linalg
from reference import operator_sum, random_density


def random_unitary(rng, dim=16):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    # fix the phase convention so the result is uniform, not that it matters here
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestPauli:
    def test_values(self):
        for i, expected in enumerate(reference.PAULIS):
            assert np.array_equal(linalg.pauli(i), expected)

    @pytest.mark.parametrize("i", range(4))
    def test_hermitian_involution(self, i):
        s = linalg.pauli(i)
        assert np.array_equal(s, s.conj().T)
        assert np.array_equal(s @ s, np.eye(2))

    @pytest.mark.parametrize("i", [-1, 4, 7])
    def test_bad_index(self, i):
        with pytest.raises(ValueError):
            linalg.pauli(i)

    @pytest.mark.parametrize("i", [1.0, 1.5, "1", None, np.float64(2.0)])
    def test_non_integer_index(self, i):
        with pytest.raises(ValueError, match="Pauli index must be 0..3"):
            linalg.pauli(i)


class TestTensor:
    def test_two_factor(self):
        # sigma_x (x) sigma_z, written out by hand
        expected = np.array([
            [0, 0, 1, 0],
            [0, 0, 0, -1],
            [1, 0, 0, 0],
            [0, -1, 0, 0],
        ], dtype=complex)
        assert np.array_equal(linalg.tensor([linalg.pauli(1), linalg.pauli(3)]), expected)

    def test_single_factor(self):
        m = linalg.pauli(2)
        assert np.array_equal(linalg.tensor([m]), m)

    def test_empty(self):
        with pytest.raises(ValueError):
            linalg.tensor([])

    @pytest.mark.parametrize("i,j,k", [(1, 2, 3), (0, 3, 1), (2, 2, 2)])
    def test_associative_on_paulis(self, i, j, k):
        # Pauli entries are 0, +-1, +-1j, so both groupings are exact in
        # floating point and the comparison can demand bitwise equality.
        a, b, c = linalg.pauli(i), linalg.pauli(j), linalg.pauli(k)
        left = linalg.tensor([linalg.tensor([a, b]), c])
        right = linalg.tensor([a, linalg.tensor([b, c])])
        assert np.array_equal(left, right)

    def test_four_qubit_shape(self):
        m = linalg.tensor([linalg.pauli(1)] * 4)
        assert m.shape == (16, 16)


class TestConjugate:
    def test_identity(self):
        rng = np.random.default_rng(0)
        rho = random_density(rng)
        assert np.allclose(linalg.conjugate(rho, np.eye(16)), rho, atol=1e-14)

    def test_flip_all(self):
        # X on every qubit sends |0000><0000| to |1111><1111|
        x4 = reference.kron([reference.X] * 4)
        assert np.allclose(linalg.conjugate(reference.basis_state(0), x4),
                           reference.basis_state(15), atol=1e-14)

    def test_rejects_nonunitary(self):
        rho = np.eye(16, dtype=complex) / 16
        with pytest.raises(ValueError, match="unitary"):
            linalg.conjugate(rho, 2.0 * np.eye(16))

    def test_rejects_nan(self):
        # a nan residual compares false against the tolerance, and must fail too
        u = np.eye(2, dtype=complex)
        u[0, 1] = np.nan
        with pytest.raises(ValueError, match="not unitary: residual nan"):
            linalg.conjugate(np.eye(2) / 2, u)

    def test_accepts_random_unitary(self):
        rng = np.random.default_rng(1)
        rho = random_density(rng)
        u = random_unitary(rng)
        out = linalg.conjugate(rho, u)
        assert abs(np.trace(out) - 1.0) < 1e-12


class TestApplyKraus:
    def test_matches_direct_sum(self):
        rng = np.random.default_rng(2)
        u1, u2 = random_unitary(rng), random_unitary(rng)
        ops = [np.sqrt(0.3) * u1, np.sqrt(0.7) * u2]
        for _ in range(5):
            rho = random_density(rng)
            assert np.allclose(linalg.apply_kraus(rho, ops),
                               operator_sum(rho, ops), atol=1e-13)

    def test_full_twirl_gives_maximally_mixed(self):
        # all 256 four-fold Pauli products with uniform weight form the
        # (depolarizing)^4 channel at full strength: everything -> I/16
        rng = np.random.default_rng(3)
        ops = reference.PAULI_STRINGS / 16.0
        rho = random_density(rng)
        assert np.allclose(linalg.apply_kraus(rho, ops), np.eye(16) / 16, atol=1e-12)

    def test_deterministic_flip(self):
        ops = [reference.kron([reference.X] * 4)]
        out = linalg.apply_kraus(reference.basis_state(0), ops)
        assert np.allclose(out, reference.basis_state(15), atol=1e-14)

    def test_rejects_incomplete_set(self):
        rho = np.eye(16, dtype=complex) / 16
        with pytest.raises(ValueError, match="completeness"):
            linalg.apply_kraus(rho, [0.5 * np.eye(16)])

    def test_rejects_nan(self):
        ops = np.stack([np.sqrt(0.5) * np.eye(2)] * 2).astype(complex)
        ops[1, 0, 1] = np.nan
        with pytest.raises(ValueError, match="completeness violated: residual nan"):
            linalg.apply_kraus(np.eye(2) / 2, ops)

    def test_error_reports_residual(self):
        rho = np.eye(16, dtype=complex) / 16
        with pytest.raises(ValueError, match=r"0\.75"):
            # sum A+A = 0.25 I, residual 0.75
            linalg.apply_kraus(rho, [0.5 * np.eye(16)])

    # n = 16 equals the operator count, which an operator sum that pairs state
    # i with operator i would accept without a shape error
    @pytest.mark.parametrize("n", [3, 16])
    def test_stack_matches_per_state_calls(self, n):
        ks = channels.build_channel(channels.ChannelSpec("bit_flip", 0.2, 0.5))
        assert len(ks) == 16
        rng = np.random.default_rng(7)
        stack = np.stack([random_density(rng) for _ in range(n)])
        out = linalg.apply_kraus(stack, ks)
        assert out.shape == (n, 16, 16)
        for rho, got in zip(stack, out):
            assert np.array_equal(got, linalg.apply_kraus(rho, ks))

    # 18 damping operators take 3 states a group, 256 depolarizing ones 1, so each
    # stack spans several groups, in both a flat and a nested stack
    @pytest.mark.parametrize("kind,n", [("amplitude_damping", 70), ("depolarizing", 3)])
    @pytest.mark.parametrize("nested", [False, True])
    def test_groups_match_single_states_bitwise(self, kind, n, nested):
        ks = channels.build_channel(channels.ChannelSpec(kind, 0.3, 0.4))
        rng = np.random.default_rng(9)
        stack = np.stack([random_density(rng) for _ in range(2 * n if nested else n)])
        if nested:
            stack = stack.reshape(2, n, 16, 16)
        out = linalg.apply_kraus(stack, ks)
        assert out.shape == stack.shape
        for rho, got in zip(stack.reshape(-1, 16, 16), out.reshape(-1, 16, 16)):
            assert got.tobytes() == linalg.apply_kraus(rho, ks).tobytes()

    def test_products_stay_bounded(self):
        # 40 states at once against 256 operators: all their products would be 40 MB
        ks = channels.build_channel(channels.ChannelSpec("depolarizing", 0.3, 0.3))
        rng = np.random.default_rng(10)
        stack = np.stack([random_density(rng) for _ in range(40)])
        tracemalloc.start()
        try:
            linalg.apply_kraus(stack, ks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2 ** 20

    def test_stack_list_input_matches_kraus_set(self):
        # a caller's stack or list of a channel's operators keeps the dense rows, and
        # gives the bits the channel's gather does: each entry of A_k rho is one product
        # plus exact zeros however it is formed
        rng = np.random.default_rng(8)
        stack = np.stack([random_density(rng) for _ in range(3)])
        grid = (0.0, 0.25, 0.5, 0.75, 1.0)
        for kind in channels.KINDS:
            for p in grid:
                for mu in grid:
                    ks = channels.build_channel(channels.ChannelSpec(kind, p, mu))
                    want = linalg.apply_kraus(stack, ks).tobytes()
                    assert linalg.apply_kraus(stack, ks.stack).tobytes() == want, (kind, p, mu)
                    assert linalg.apply_kraus(stack, list(ks)).tobytes() == want, (kind, p, mu)


def two_product_reference(rho, stack):
    # the operator sum as apply_kraus formed it with no operands laid out per set:
    # every A_k rho in one batched product, swapped to (d, k, d) and copied, then
    # one (d, k*d) @ (k*d, d) product per state
    tmp = np.swapaxes(stack @ rho[..., None, :, :], -3, -2)
    return (tmp.reshape(*rho.shape[:-1], -1)
            @ stack.conj().swapaxes(-1, -2).reshape(-1, rho.shape[-1]))


def random_densities(rng, shape):
    return random_density(rng) if shape == () else np.stack(
        [random_density(rng) for _ in range(shape[0])])


class TestApplyKrausLayout:
    # Every operator build_channel makes is X^c D: one nonzero entry per row, and
    # that entry real or imaginary. So each entry of A_k rho is one product plus
    # exact zeros, which any summation order or product kernel rounds alike, and
    # the second product keeps its operands, shape and order: the laid-out form
    # is bit-identical to the reference. A dense A_k makes each entry a sum of d
    # products, which one (d*k, d) @ (d, d) product may round differently from
    # k batched (d, d) products, so dense sets are held to a tolerance.
    @pytest.mark.parametrize("kind", channels.KINDS)
    @pytest.mark.parametrize("p,mu", [(0.0, 0.0), (1.0, 0.0), (0.5, 1.0), (0.3, 0.3),
                                      (0.05, 0.95)])
    def test_channel_sets_match_reference_bitwise(self, kind, p, mu):
        ks = channels.build_channel(channels.ChannelSpec(kind, p, mu))
        rng = np.random.default_rng(11)
        for shape in [(), (1,), (3,)]:
            rho = random_densities(rng, shape)
            got = linalg.apply_kraus(rho, ks)
            assert got.shape == rho.shape
            assert got.tobytes() == two_product_reference(rho, ks.stack).tobytes()

    @pytest.mark.parametrize("shape", [(), (1,), (3,)])
    def test_dense_sets_match_direct_sum(self, shape):
        rng = np.random.default_rng(12)
        weights = rng.dirichlet(np.ones(5))
        ks = linalg.KrausSet([np.sqrt(w) * random_unitary(rng) for w in weights])
        rho = random_densities(rng, shape)
        got = linalg.apply_kraus(rho, ks)
        want = [operator_sum(state, ks.stack) for state in rho.reshape(-1, 16, 16)]
        assert np.max(np.abs(got.reshape(-1, 16, 16) - want)) <= 1e-13

    @pytest.mark.parametrize("kind", channels.KINDS)
    def test_channel_sets_take_the_gather(self, kind):
        # a (d, k) table of columns and values, and no (d*k, d) rows of the operators
        grid = (0.0, 0.25, 0.5, 0.75, 1.0)
        for p in grid:
            for mu in grid:
                ks = channels.build_channel(channels.ChannelSpec(kind, p, mu))
                assert ks._dense_rows is None
                assert ks._columns.shape == (16 * len(ks),)
                assert ks._values.shape == (16, len(ks))
                arrays = [a for a in vars(ks).values() if isinstance(a, np.ndarray)]
                assert all(a.shape != (16 * len(ks), 16) for a in arrays)
                assert sum(a.nbytes for a in arrays) == len(ks) * (16 * 16 + 8 + 16) * 16

    @pytest.mark.parametrize("kind", channels.KINDS)
    def test_stack_reads_back_the_plain_stack(self, kind):
        # conjugation is exact, so the adjoint rows, and the stack read back from them,
        # keep every byte of the stack the batch yields, signed zeros included
        grid = (0.0, 0.25, 0.5, 0.75, 1.0)
        for p in grid:
            for mu in grid:
                plain = next(channels._kraus_sets(kind, [p], [mu]))
                ks = channels.build_channel(channels.ChannelSpec(kind, p, mu))
                want = plain.conj().swapaxes(-1, -2).reshape(-1, 16)
                assert ks._adjoints.reshape(-1, 16).tobytes() == want.tobytes()
                assert ks.stack.tobytes() == plain.tobytes()
                assert not ks.stack.flags.writeable

    @pytest.mark.parametrize("operators", [
        # one nonzero entry per row, but neither real nor imaginary
        lambda rng: [np.sqrt(w) * np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 16)))
                     for w in rng.dirichlet(np.ones(3))],
        # X^c D, real: a permutation pair, and a damping stack with rows of zeros
        lambda rng: np.stack([np.sqrt(0.5) * np.eye(16), np.sqrt(0.5) * np.eye(16)[::-1]]),
        lambda rng: channels.build_channel(
            channels.ChannelSpec("amplitude_damping", 1.0, 0.5)).stack,
    ], ids=["complex-diagonal", "permutation-pair", "channel-stack"])
    def test_complex_entries_take_the_dense_rows(self, operators):
        # a caller's stack keeps its dense rows whatever its entries: only a table is
        # laid out for the gather
        rng = np.random.default_rng(16)
        ks = linalg.KrausSet(operators(rng))
        assert ks._dense_rows.shape == (16 * len(ks), 16)
        assert not hasattr(ks, "_columns") and not hasattr(ks, "_values")
        for shape in [(), (1,), (3,)]:
            rho = random_densities(rng, shape)
            got = linalg.apply_kraus(rho, ks)
            assert got.tobytes() == two_product_reference(rho, ks.stack).tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.complex64, np.int64])
    def test_other_state_dtypes_are_cast_to_complex(self, dtype):
        # both paths apply the set to the complex128 cast of the state, as a
        # product with the dense rows always did
        rng = np.random.default_rng(17)
        gather = channels.build_channel(channels.ChannelSpec("depolarizing", 0.3, 0.3))
        dense = linalg.KrausSet([np.sqrt(w) * random_unitary(rng) for w in (0.2, 0.8)])
        assert gather._dense_rows is None and dense._dense_rows is not None
        part = (lambda a: a) if np.issubdtype(dtype, np.complexfloating) else np.real
        states = [np.eye(16, dtype=dtype),
                  np.stack([part(16 * random_density(rng)).astype(dtype) for _ in range(3)])]
        for ks in (gather, dense):
            for rho in states:
                got = linalg.apply_kraus(rho, ks)
                want = two_product_reference(rho.astype(complex), ks.stack)
                assert got.dtype == complex and got.shape == rho.shape
                if ks is gather:
                    assert got.tobytes() == want.tobytes()
                else:
                    assert np.max(np.abs(got - want)) <= 1e-12

    def test_operands_laid_out_at_construction(self):
        ks = channels.build_channel(channels.ChannelSpec("depolarizing", 0.3, 0.3))
        operands = {name: a for name, a in vars(ks).items() if isinstance(a, np.ndarray)}
        assert sorted(operands) == ["_adjoints", "_columns", "_values"]
        for array in operands.values():
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array.reshape(-1)[0] = 1
        rho = random_density(np.random.default_rng(13))
        first = ks(rho)
        assert np.array_equal(linalg.apply_kraus(rho, ks), first)
        assert all(vars(ks)[name] is a for name, a in operands.items())

    def test_one_copy_of_the_operators(self):
        # a 256-operator set keeps its operators once, as their adjoint rows, 1 MiB,
        # beside the 96 KiB table of the first product's columns and values; one
        # application adds its 1 MiB of A_k rho products and numpy's 128 KiB buffer
        # for the in-place scaling. The stack is read back from the adjoints
        tracemalloc.start()
        try:
            ks = channels.build_channel(channels.ChannelSpec("depolarizing", 0.3, 0.3))
            retained = tracemalloc.get_traced_memory()[0]
            rho = random_density(np.random.default_rng(14))
            tracemalloc.reset_peak()
            ks(rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ks) == 256
        assert retained <= 2 ** 20 + 100 * 2 ** 10
        assert peak <= 2 * 2 ** 20 + 100 * 2 ** 10 + 192 * 2 ** 10
        assert not ks.stack.flags.writeable
        with pytest.raises(ValueError):
            ks.stack[0, 0, 0] = 1.0


def random_table(rng, n=6, dim=8):
    """A complete (dim, n) column/value table: one entry per row of each operator, real
    or imaginary, at columns repeated within and across operators, with zero entries
    of both signs: operator 0 has an entry in every column, and each entry is divided
    by the root of its column's sum of squares."""
    columns = rng.integers(0, dim, size=(dim, n))
    columns[:, 0] = rng.permutation(dim)
    values = rng.normal(size=(dim, n)) * np.where(rng.random((dim, n)) < 0.5, 1.0, 1j)
    zero = np.zeros((dim, n), dtype=bool)
    zero[:, 1:] = rng.random((dim, n - 1)) < 0.25
    values[zero] = 0.0
    values /= np.sqrt(np.bincount(columns.ravel(), (np.abs(values) ** 2).ravel())[columns])
    values[zero] = np.where(rng.random(zero.sum()) < 0.5, complex(-0.0, -0.0), 0.0)
    return columns, values


class TestTableLayout:
    """A set given as a (d, n) table of the column and value of the one entry in each
    row of each operator is laid out for the gather, with no Gram product."""

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("scale", [1.0, 0.9])
    def test_residual_matches_the_gram_product(self, seed, scale):
        columns, values = random_table(np.random.default_rng(seed))
        values *= scale
        dim, n = values.shape
        plain = np.zeros((n, dim, dim), dtype=complex)
        plain[np.arange(n), np.arange(dim)[:, None], columns] = values
        ks = linalg.KrausSet._from_table(columns, values)
        assert ks._dense_rows is None
        assert abs(ks.completeness_residual - linalg.completeness_residual(ks.stack)) <= 1e-15
        # the adjoint rows are scattered from the table, so its signed zeros read back
        assert ks.stack.tobytes() == plain.tobytes()

    @pytest.mark.parametrize("seed", range(5))
    def test_table_and_its_stack_are_the_same_channel(self, seed):
        # the gather of a table and the dense rows of the stack read back from it form
        # each entry of A_k rho as the same one product, repeated columns and rows of
        # zeros included, so both apply the set bit for bit as the reference does
        rng = np.random.default_rng(seed)
        table = linalg.KrausSet._from_table(*random_table(rng))
        dense = linalg.KrausSet(table.stack)
        assert dense._dense_rows is not None
        assert dense.stack.tobytes() == table.stack.tobytes()
        assert abs(table.completeness_residual - dense.completeness_residual) <= 1e-15
        for count in [None, 1, 3]:
            rho = (random_density(rng, dim=8) if count is None
                   else np.stack([random_density(rng, dim=8) for _ in range(count)]))
            want = two_product_reference(rho, table.stack).tobytes()
            assert table(rho).tobytes() == want
            assert dense(rho).tobytes() == want

    @pytest.mark.parametrize("kind", channels.KINDS)
    def test_channel_residual_matches_the_gram_product(self, kind):
        # the residual each channel set reads off its table is the Gram product's of
        # the plain stack the batch yields, on the whole 5x5 grid
        grid = (0.0, 0.25, 0.5, 0.75, 1.0)
        for p in grid:
            for mu in grid:
                ks = channels.build_channel(channels.ChannelSpec(kind, p, mu))
                plain = next(channels._kraus_sets(kind, [p], [mu]))
                gram = linalg.completeness_residual(plain)
                assert abs(ks.completeness_residual - gram) <= 1e-15, (p, mu)

    def test_scaled_weight_fails_completeness(self):
        # one operator of a depolarizing table 1.01 times too long: its weight is 2%
        # too large in every column
        columns, values = next(channels._kraus_tables("depolarizing", [0.3], [0.3]))
        values[:, 0] *= 1.01
        ks = linalg.KrausSet._from_table(columns, values)
        with pytest.raises(ValueError, match="Kraus completeness violated"):
            linalg.apply_kraus(np.eye(16, dtype=complex) / 16, ks)

    def test_build_holds_no_stack_beside_the_adjoints(self):
        # a 256-operator set keeps its 1 MiB of adjoint rows and its 96 KiB table;
        # building it holds at most one 32 KiB index beside them, where the plain stack
        # of a caller took another 1 MiB
        spec = channels.ChannelSpec("depolarizing", 0.3, 0.3)
        channels.build_channel(spec)
        tracemalloc.start()
        try:
            ks = channels.build_channel(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ks) == 256
        assert peak <= 2 ** 20 + 160 * 2 ** 10


class TestValidateDensity:
    def test_valid_state(self):
        rng = np.random.default_rng(4)
        report = linalg.validate_density(random_density(rng))
        assert report.ok
        assert report.hermiticity_residual < 1e-13
        assert report.trace_residual < 1e-13
        assert report.min_eigenvalue > -1e-13

    def test_flags_nonhermitian(self):
        rho = np.eye(16, dtype=complex) / 16
        rho[0, 1] = 0.5
        report = linalg.validate_density(rho)
        assert not report.ok
        assert report.hermiticity_residual > 0.4

    def test_flags_bad_trace(self):
        report = linalg.validate_density(np.eye(16, dtype=complex) / 8)
        assert not report.ok
        assert abs(report.trace_residual - 1.0) < 1e-12

    def test_flags_negative_eigenvalue(self):
        d = np.full(16, 1.0 / 15)
        d[7] = -1.0 / 15
        report = linalg.validate_density(np.diag(d).astype(complex))
        assert not report.ok
        assert abs(report.min_eigenvalue + 1.0 / 15) < 1e-12

    def test_pure_state(self):
        report = linalg.validate_density(reference.basis_state(0))
        assert report.ok
        assert report.min_eigenvalue >= 0.0


def state_with_spectrum(seed, smallest):
    """Q diag(smallest, w, ..., w) Q+ for a random unitary Q, with unit trace."""
    weights = np.full(16, (1.0 - smallest) / 15)
    weights[0] = smallest
    q = random_unitary(np.random.default_rng(seed))
    return (q * weights) @ q.conj().T


def eigen_report(rho):
    """The report of the eigen-solve alone: the reference the certificate must agree with."""
    return linalg.ValidationReport(*reference.eigen_residuals(rho))


def report_bytes(report):
    return [np.asarray(value).tobytes() for value in vars(report).values()]


CERTIFIED = linalg.EIGENVALUE_FLOOR / 2


class TestPositivityCertificate:
    # the certificate factors rho + s I, s = -EIGENVALUE_FLOOR / 2 = 5e-11: it holds
    # above lambda_min = -s, up to Cholesky's backward error (about 3e-14 here)
    @pytest.mark.parametrize("smallest, certified, ok", [
        (-4.9e-11, True, True),
        (-4.99e-11, True, True),
        (-5.01e-11, False, True),
        (-9.9e-11, False, True),
        (-1.01e-10, False, False),
    ])
    def test_floor_neighbourhood(self, smallest, certified, ok):
        rho = np.stack([state_with_spectrum(seed, smallest) for seed in range(8)])
        report = linalg.validate_densities(rho, spectrum=False)
        expected = linalg.validate_densities(rho)
        if certified:
            expected = dataclasses.replace(expected, min_eigenvalue=np.full(8, CERTIFIED))
        assert report_bytes(report) == report_bytes(expected)
        assert np.all(report.ok == ok)

    def test_shift_cancelling_the_spectrum_passes_either_way(self):
        # at lambda_min = -s the shifted matrix is singular up to rounding, so the
        # factorisation may go either way; both verdicts pass
        for seed in range(8):
            rho = state_with_spectrum(seed, -5e-11)
            report = linalg.validate_densities(rho, spectrum=False)
            assert report.ok
            assert report.min_eigenvalue in (CERTIFIED, linalg.validate_densities(rho)
                                             .min_eigenvalue)

    @pytest.mark.parametrize("flaw", ["negative", "hermiticity", "trace"])
    def test_one_bad_state_falls_back_for_the_stack(self, flaw):
        rho = np.stack([state_with_spectrum(seed, 0.01) for seed in range(5)])
        if flaw == "negative":
            rho[3] = state_with_spectrum(9, -2e-10)
        elif flaw == "hermiticity":
            rho[3, 0, 1] += 1e-9
        else:
            rho[3] *= 1 + 1e-9
        report = linalg.validate_densities(rho, spectrum=False)
        assert report_bytes(report) == report_bytes(linalg.validate_densities(rho))
        assert report.ok.tolist() == [True, True, True, False, True]

    @pytest.mark.parametrize("entry", [(3, 3), (3, 5)], ids=["diagonal", "off-diagonal"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_entry_fails(self, value, entry):
        # the state is not solved and fails on nan; the finite states keep their solve
        rho = np.stack([state_with_spectrum(seed, 0.01) for seed in range(3)])
        rho[1][entry] = value
        finite = reference.eigen_residuals(rho[[0, 2]])
        for spectrum in (False, True):
            report = linalg.validate_densities(rho, spectrum=spectrum)
            assert report.ok.tolist() == [True, False, True]
            assert np.isnan(report.min_eigenvalue[1])
            assert not np.isfinite(report.hermiticity_residual[1])
            for field, solved in zip(vars(report).values(), finite):
                assert field[[0, 2]].tobytes() == solved.tobytes()

    def test_nonfinite_factor_is_no_certificate(self, monkeypatch):
        # numpy's batched cholesky can return nan rows for a nan input without raising
        rho = np.stack([state_with_spectrum(seed, 0.01) for seed in range(3)])
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: np.full(a.shape, np.nan))
        report = linalg.validate_densities(rho, spectrum=False)
        assert report_bytes(report) == report_bytes(eigen_report(rho))

    def test_single_state(self):
        report = linalg.validate_densities(state_with_spectrum(0, 0.01), spectrum=False)
        assert report.ok
        assert report.min_eigenvalue.shape == () and report.min_eigenvalue == CERTIFIED

    def test_spectrum_is_the_eigen_solve(self):
        rho = np.stack([state_with_spectrum(seed, smallest) for seed, smallest
                        in enumerate((0.01, 0.0, -4e-11, -2e-10))])
        assert report_bytes(linalg.validate_densities(rho)) == report_bytes(eigen_report(rho))

    @settings(max_examples=200, deadline=None)
    @given(stack=st.lists(st.tuples(st.integers(0, 2 ** 32 - 1),
                                    st.floats(-2e-10, 2e-11)), min_size=1, max_size=4))
    def test_certified_verdicts_are_the_eigen_solve_verdicts(self, stack):
        rho = np.stack([state_with_spectrum(seed, smallest) for seed, smallest in stack])
        certified, eigen = linalg.validate_densities(rho, spectrum=False), eigen_report(rho)
        assert certified.ok.tolist() == eigen.ok.tolist()
        # the whole stack is certified, or the whole stack gets the eigen-solve's report
        assert (np.all(certified.min_eigenvalue == CERTIFIED)
                or report_bytes(certified) == report_bytes(eigen))


def with_antihermitian_part(seed, smallest, sign):
    """state_with_spectrum plus an antihermitian part with entries of 0.499e-12 whose
    lower triangle moves the smallest eigenvalue of the matrix the certificate factors
    by about sign * 6e-12, and leaves the symmetrized state as it was."""
    v = random_unitary(np.random.default_rng(seed))[:, 0]  # the smallest eigenvector
    phases = v[:, None] * v.conj()
    part = np.tril(-sign * 0.499e-12 * phases / np.abs(phases), -1)
    return state_with_spectrum(seed, smallest) + part - part.conj().T


class TestCertificateResiduals:
    """The certificate reads |rho - rho+| from one triangle and factors rho's lower
    triangle: the residuals are the eigen-solve's, and so is every verdict."""

    @pytest.mark.parametrize("spectrum", [False, True])
    @pytest.mark.parametrize("dim", [2, 4, 16])
    def test_residuals_are_the_eigen_solve_residuals(self, dim, spectrum):
        rng = np.random.default_rng(dim)
        clean = np.stack([random_density(rng, dim) for _ in range(24)]).reshape(2, 12, dim, dim)
        noise = rng.normal(size=clean.shape) + 1j * rng.normal(size=clean.shape)
        # states within the tolerances, certified, then a stack whose noise fails some
        for scale, certified in ((np.full(12, 1e-15), True), (np.logspace(-16, -8, 12), False)):
            rho = clean + noise * scale[:, None, None]
            herm, trace, _ = reference.eigen_residuals(rho)
            for states, want in ((rho, (herm, trace)), (rho[1, 11], (herm[1, 11], trace[1, 11]))):
                report = linalg.validate_densities(states, spectrum=spectrum)
                assert np.all(report.min_eigenvalue == CERTIFIED) == (certified and not spectrum)
                assert [np.asarray(field).tobytes() for field in want] == report_bytes(report)[:2]

    @pytest.mark.parametrize("smallest, sign, certified, ok", [
        (-4.5e-11, 1, False, True),
        (-5.5e-11, -1, True, True),
        (-9.9e-11, 1, False, True),
        (-1.01e-10, -1, False, False),
    ])
    def test_antihermitian_part_near_the_shift(self, smallest, sign, certified, ok):
        # the factored matrix is the symmetrized state up to (d - 1)/2 * residual in
        # norm: a certified state is within that of -s, and the verdict is the solve's
        rho = np.stack([with_antihermitian_part(seed, smallest, sign) for seed in range(8)])
        report, eigen = linalg.validate_densities(rho, spectrum=False), eigen_report(rho)
        assert np.all((0.99e-12 < report.hermiticity_residual)
                      & (report.hermiticity_residual < linalg.HERMITICITY_TOL))
        assert report.ok.tolist() == eigen.ok.tolist() == [ok] * 8
        if certified:
            assert np.all(report.min_eigenvalue == CERTIFIED)
            bound = CERTIFIED - 15 / 2 * report.hermiticity_residual
            assert np.all((eigen.min_eigenvalue < CERTIFIED) & (eigen.min_eigenvalue > bound))
        else:
            assert report_bytes(report) == report_bytes(eigen)


class TestTensorStacks:
    # np.kron has no notion of a stack: a np.kron chain over (m, 2, 2) arrays
    # gives an (m^k, ...) block matrix, so the oracle runs it row by row

    def test_stack_matches_rowwise_kron(self):
        rng = np.random.default_rng(5)
        factors = [rng.normal(size=(6, 2, 2)) + 1j * rng.normal(size=(6, 2, 2))
                   for _ in range(4)]
        expected = np.stack([reference.kron(row) for row in zip(*factors)])
        got = linalg.tensor(factors)
        assert got.shape == (6, 16, 16)
        assert np.array_equal(got, expected)

    def test_matrices_broadcast_against_stacks(self):
        rng = np.random.default_rng(6)
        stack = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
        x, z = linalg.pauli(1), linalg.pauli(3)
        got = linalg.tensor([x, stack, z])
        assert got.shape == (3, 8, 8)
        for row, op in zip(got, stack):
            assert np.array_equal(row, reference.kron([x, op, z]))

    def test_random_moves_match_kron(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            moves = [game.strategy_unitary(game.StrategyTriple(
                rng.uniform(0.0, np.pi), *rng.uniform(-np.pi, np.pi, size=2)))
                for _ in range(4)]
            assert np.array_equal(linalg.tensor(moves), reference.kron(moves))


class TestCompletenessResidual:
    @pytest.mark.parametrize("n,dim", [(1, 2), (3, 4), (18, 16), (256, 16)])
    @pytest.mark.parametrize("scale", [1.0, 0.9])
    def test_matches_dense_formula(self, n, dim, scale):
        # random isometries, complete at scale 1 and off by 0.19 at 0.9,
        # against max |A+ A - I| with A the (n d, d) column of the stack
        rng = np.random.default_rng(n * dim)
        column = rng.normal(size=(n * dim, dim)) + 1j * rng.normal(size=(n * dim, dim))
        flat = scale * np.linalg.qr(column)[0]
        dense = np.max(np.abs(flat.conj().T @ flat - np.eye(dim)))
        assert abs(linalg.completeness_residual(flat.reshape(n, dim, dim)) - dense) <= 1e-15

    def test_strided_stack(self):
        # every other column of a wider stack: the rows have a stride of two entries
        column = np.random.default_rng(5).normal(size=(48, 32)).view(complex)
        ops = np.linalg.qr(column)[0].reshape(3, 16, 16)
        strided = np.repeat(ops, 2, axis=-1)[..., ::2]
        assert np.array_equal(strided, ops) and not strided.flags.c_contiguous
        assert linalg.completeness_residual(strided) == linalg.completeness_residual(ops)


class TestKrausSet:
    def test_caller_array_not_adopted(self):
        ops = np.stack([np.sqrt(0.5) * np.eye(16), np.sqrt(0.5) * np.eye(16)[::-1]]
                       ).astype(complex)
        before = ops.copy()
        linalg.apply_kraus(np.eye(16, dtype=complex) / 16, ops)
        assert ops.flags.writeable
        assert np.array_equal(ops, before)

    def test_caller_array_copied(self):
        # the set keeps its own copy: the caller's array stays writable, and a later
        # write to it changes neither the stack nor any application
        rng = np.random.default_rng(15)
        ops = np.stack([np.sqrt(0.3) * random_unitary(rng), np.sqrt(0.7) * random_unitary(rng)])
        before = ops.copy()
        rho = random_density(rng)
        for ks in (linalg.KrausSet(ops), linalg.KrausSet(list(ops))):
            first = ks(rho)
            assert ops.flags.writeable and np.array_equal(ops, before)
            assert not np.shares_memory(ks.stack, ops)
            ops[0] *= 2.0
            assert np.array_equal(ks.stack, before)
            assert np.array_equal(ks(rho), first)
            assert ks.completeness_residual <= linalg.COMPLETENESS_TOL
            ops[...] = before

    def test_input_forms_agree_bitwise(self):
        rng = np.random.default_rng(8)
        ops = [np.sqrt(0.3) * random_unitary(rng), np.sqrt(0.7) * random_unitary(rng)]
        rho = random_density(rng)
        from_list = linalg.apply_kraus(rho, ops)
        assert np.array_equal(linalg.apply_kraus(rho, np.stack(ops)), from_list)
        assert np.array_equal(linalg.apply_kraus(rho, linalg.KrausSet(ops)), from_list)

    def test_call_is_apply_kraus(self):
        rng = np.random.default_rng(9)
        ks = linalg.KrausSet([np.sqrt(0.4) * random_unitary(rng),
                              np.sqrt(0.6) * random_unitary(rng)])
        rho = random_density(rng)
        assert np.array_equal(ks(rho), linalg.apply_kraus(rho, ks))

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            linalg.apply_kraus(np.eye(16, dtype=complex) / 16, [])

    def test_one_class(self):
        assert qminority.KrausSet is channels.KrausSet is linalg.KrausSet

    @pytest.mark.parametrize("operators", [np.eye(16), np.zeros((2, 3, 4)),
                                           np.zeros((2, 2, 2, 2)), np.ones(4)])
    def test_rejects_non_stacks(self, operators):
        with pytest.raises(ValueError, match=r"\(n, d, d\) stack, got \("):
            linalg.KrausSet(operators)
        assert operators.flags.writeable

    @pytest.mark.parametrize("shape", [(8, 8), (3, 8, 8), (16, 8), (16,)])
    def test_rejects_state_of_other_dimension(self, shape):
        ks = channels.build_channel(channels.ChannelSpec("bit_flip", 0.2, 0.5))
        with pytest.raises(ValueError, match=r"does not fit Kraus stack \(16, 16, 16\)"):
            linalg.apply_kraus(np.zeros(shape, dtype=complex), ks)
