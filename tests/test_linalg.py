import tracemalloc

import numpy as np
import pytest

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
        ks = channels.build_channel(channels.ChannelSpec("bit_flip", 0.2, 0.5))
        rng = np.random.default_rng(8)
        stack = np.stack([random_density(rng) for _ in range(3)])
        assert np.array_equal(linalg.apply_kraus(stack, list(ks)),
                              linalg.apply_kraus(stack, ks))


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
    def test_adjoint_rows_match_the_two_copy_layout(self, kind):
        # conjugation is exact, so writing the adjoints in one pass changes no bit of
        # the rows the two-copy expression conj, then transpose, then reshape made
        grid = (0.0, 0.25, 0.5, 0.75, 1.0)
        for p in grid:
            for mu in grid:
                ks = channels.build_channel(channels.ChannelSpec(kind, p, mu))
                want = ks.stack.conj().swapaxes(-1, -2).reshape(-1, 16)
                assert ks._operands[1].tobytes() == want.tobytes()

    def test_operands_laid_out_at_construction(self):
        ks = channels.build_channel(channels.ChannelSpec("depolarizing", 0.3, 0.3))
        left, adjoint_rows = operands = vars(ks)["_operands"]
        assert left.shape == adjoint_rows.shape == (16 * len(ks), 16)
        for array in operands:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 0] = 1.0
        rho = random_density(np.random.default_rng(13))
        first = ks(rho)
        assert np.array_equal(linalg.apply_kraus(rho, ks), first)
        assert all(a is b for a, b in zip(vars(ks)["_operands"], operands))

    def test_one_copy_of_the_operators(self):
        # a 256-operator set keeps its operators once, in the first operand's row
        # layout that the stack views, plus the adjoint rows: 2 MiB; one application
        # adds its 1 MiB of A_k rho products
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
        assert retained <= 2 * 2 ** 20 + 64 * 2 ** 10
        assert peak <= 3 * 2 ** 20 + 64 * 2 ** 10
        assert np.shares_memory(ks.stack, ks._operands[0])
        assert not ks.stack.flags.writeable
        with pytest.raises(ValueError):
            ks.stack[0, 0, 0] = 1.0


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
