import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from qminority import channels, linalg
from reference import operator_sum, random_density


GRID = [0.0, 0.25, 0.5, 0.75, 1.0]


class TestPauliProbVector:
    def test_bit_flip(self):
        assert channels.pauli_prob_vector("bit_flip", 0.3) == (0.7, 0.3, 0.0, 0.0)

    def test_bit_phase_flip(self):
        assert channels.pauli_prob_vector("bit_phase_flip", 0.3) == (0.7, 0.0, 0.3, 0.0)

    def test_phase_flip(self):
        assert channels.pauli_prob_vector("phase_flip", 0.3) == (0.7, 0.0, 0.0, 0.3)

    def test_depolarizing(self):
        v = channels.pauli_prob_vector("depolarizing", 0.4)
        assert v == pytest.approx((0.7, 0.1, 0.1, 0.1), abs=1e-15)

    @pytest.mark.parametrize("kind", channels.PAULI_KINDS)
    @pytest.mark.parametrize("p", GRID)
    def test_normalized(self, kind, p):
        assert sum(channels.pauli_prob_vector(kind, p)) == pytest.approx(1.0, abs=1e-15)

    def test_amplitude_damping_rejected(self):
        with pytest.raises(ValueError, match="amplitude_damping"):
            channels.pauli_prob_vector("amplitude_damping", 0.3)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            channels.pauli_prob_vector("dephasing", 0.3)

    def test_p_range(self):
        with pytest.raises(ValueError):
            channels.pauli_prob_vector("bit_flip", 1.2)


class TestMemoryKraus:
    def test_operator_counts(self):
        # support {I, X} gives 2^4 tuples for generic mu, the two constant
        # tuples at mu=1, and the full 4^4 only for depolarizing
        assert len(channels.pauli_memory_kraus("bit_flip", 0.3, 0.0)) == 16
        assert len(channels.pauli_memory_kraus("bit_flip", 0.3, 0.5)) == 16
        assert len(channels.pauli_memory_kraus("bit_flip", 0.3, 1.0)) == 2
        assert len(channels.pauli_memory_kraus("depolarizing", 0.3, 0.5)) == 256
        assert len(channels.pauli_memory_kraus("depolarizing", 0.3, 1.0)) == 4

    @pytest.mark.parametrize("kind", channels.PAULI_KINDS)
    @pytest.mark.parametrize("p", GRID)
    @pytest.mark.parametrize("mu", GRID)
    def test_completeness(self, kind, p, mu):
        ks = channels.pauli_memory_kraus(kind, p, mu)
        assert ks.completeness_residual <= 1e-12

    def test_rejects_amplitude_damping(self):
        with pytest.raises(ValueError, match="not a Pauli mixture channel"):
            channels.pauli_memory_kraus("amplitude_damping", 0.3, 0.5)

    def test_no_zero_operators(self):
        for kind in channels.PAULI_KINDS:
            ks = channels.pauli_memory_kraus(kind, 0.0, 0.3)
            for op in ks:
                assert np.max(np.abs(op)) > 0.0

    @pytest.mark.parametrize("kind", channels.PAULI_KINDS)
    def test_keeps_one_operator_per_nonzero_weight(self, kind):
        # every zero weight is exact, so the set keeps exactly the nonzero ones
        for p, mu in itertools.product([0.0, 1e-3, 0.3, 0.5, 1.0], [0.0, 0.3, 0.999, 1.0]):
            w = channels.pauli_memory_weights(kind, np.array([p]), np.array([mu]))
            assert len(channels.pauli_memory_kraus(kind, p, mu)) == np.count_nonzero(w)

    def test_hand_computed_weights(self):
        # bit flip, p=0.3, mu=0.5, alpha=(0.7, 0.3):
        #   all-X tuple:  0.3 * (0.5*0.3 + 0.5)^3 = 0.0823875
        #   all-I tuple:  0.7 * (0.5*0.7 + 0.5)^3 = 0.4298875
        ks = channels.pauli_memory_kraus("bit_flip", 0.3, 0.5)
        antidiag = [op for op in ks if abs(op[0, 15]) > 0]
        assert len(antidiag) == 1
        assert abs(antidiag[0][0, 15]) == pytest.approx(np.sqrt(0.0823875), abs=1e-14)
        diag = [op for op in ks
                if np.allclose(op, op[0, 0] * np.eye(16), atol=1e-14)]
        assert len(diag) == 1
        assert diag[0][0, 0].real == pytest.approx(np.sqrt(0.4298875), abs=1e-14)

    def test_memoryless_limit_factorizes(self):
        # mu=0 must reproduce four independent single-qubit channels;
        # the oracle applies them one qubit at a time
        rng = np.random.default_rng(10)
        for kind in channels.PAULI_KINDS:
            rho = random_density(rng)
            expected = reference.product_channel(kind, 0.37, rho)
            got = linalg.apply_kraus(rho, channels.pauli_memory_kraus(kind, 0.37, 0.0))
            assert np.max(np.abs(got - expected)) < 1e-13

    def test_full_memory_limit_collapses(self):
        # mu=1 keeps only the perfectly correlated error patterns
        ks = channels.pauli_memory_kraus("bit_flip", 0.5, 1.0)
        expected = [np.sqrt(0.5) * np.eye(16),
                    np.sqrt(0.5) * reference.kron([reference.X] * 4)]
        got = sorted(ks, key=lambda op: abs(op[0, 0]), reverse=True)
        for g, e in zip(got, expected):
            assert np.allclose(g, e, atol=1e-14)

    def test_full_memory_depolarizing(self):
        ks = channels.pauli_memory_kraus("depolarizing", 0.4, 1.0)
        rng = np.random.default_rng(11)
        rho = random_density(rng)
        expected = operator_sum(rho, [np.sqrt(w) * reference.kron([s] * 4)
                                      for w, s in zip((0.7, 0.1, 0.1, 0.1), reference.PAULIS)])
        assert np.allclose(linalg.apply_kraus(rho, ks), expected, atol=1e-13)

    def test_population_chain_statistics(self):
        # on |0000><0000| a bit-flip chain writes its error pattern straight
        # into the output bitstring (I is 0, X is 1), so the diagonal must
        # reproduce the Markov pattern probabilities of the plain scalar chain
        p, mu = 0.3, 0.6
        out = linalg.apply_kraus(reference.basis_state(0),
                                 channels.pauli_memory_kraus("bit_flip", p, mu))
        alpha = reference.mixture("bit_flip", p)
        for bits in itertools.product((0, 1), repeat=4):
            prob = reference.chain_weight(alpha, mu, bits)
            idx = bits[0] * 8 + bits[1] * 4 + bits[2] * 2 + bits[3]
            assert out[idx, idx].real == pytest.approx(prob, abs=1e-14)

    def test_reversal_symmetry(self):
        # the chain weight is invariant under reversing the qubit order
        rng = np.random.default_rng(12)
        rev = np.zeros((16, 16))
        for i in range(16):
            b = [(i >> k) & 1 for k in range(4)]
            j = b[0] * 8 + b[1] * 4 + b[2] * 2 + b[3]
            rev[j, i] = 1.0
        ks = channels.pauli_memory_kraus("depolarizing", 0.3, 0.4)
        rho = random_density(rng)
        left = linalg.apply_kraus(rev @ rho @ rev.T, ks)
        right = rev @ linalg.apply_kraus(rho, ks) @ rev.T
        assert np.max(np.abs(left - right)) < 1e-13


class TestAmplitudeDamping:
    def test_uncorrelated_count(self):
        assert len(channels.ad_uncorrelated_kraus(0.3)) == 16
        assert len(channels.ad_uncorrelated_kraus(0.0)) == 1

    @pytest.mark.parametrize("p", GRID)
    def test_uncorrelated_completeness(self, p):
        stack = np.stack(channels.ad_uncorrelated_kraus(p))
        assert linalg.completeness_residual(stack) <= 1e-12

    def test_uncorrelated_populations(self):
        # each excited qubit decays independently with probability p
        p = 0.3
        out = operator_sum(reference.basis_state(15), channels.ad_uncorrelated_kraus(p))
        for i in range(16):
            ones = bin(i).count("1")
            expected = (1 - p) ** ones * p ** (4 - ones)
            assert out[i, i].real == pytest.approx(expected, abs=1e-14)

    def test_correlated_matrices(self):
        p = 0.6
        a00, a11 = channels.ad_correlated_kraus(p)
        expected00 = np.eye(16, dtype=complex)
        expected00[0, 0] = np.sqrt(1 - p)  # cos(arcsin(sqrt(p)))
        assert np.allclose(a00, expected00, atol=1e-14)
        expected11 = np.zeros((16, 16), dtype=complex)
        expected11[15, 0] = np.sqrt(p)
        assert np.allclose(a11, expected11, atol=1e-14)

    def test_correlated_at_zero(self):
        a00, a11 = channels.ad_correlated_kraus(0.0)
        assert np.allclose(a00, np.eye(16), atol=1e-15)
        assert np.max(np.abs(a11)) == 0.0

    @pytest.mark.parametrize("p", GRID)
    def test_correlated_completeness(self, p):
        stack = np.stack(channels.ad_correlated_kraus(p))
        assert linalg.completeness_residual(stack) <= 1e-14

    def test_correlated_undisturbed_subspace(self):
        # anything orthogonal to |0000> passes the correlated pair unchanged
        rng = np.random.default_rng(13)
        v = rng.normal(size=16) + 1j * rng.normal(size=16)
        v[0] = 0.0
        v /= np.linalg.norm(v)
        rho = np.outer(v, v.conj())
        out = operator_sum(rho, channels.ad_correlated_kraus(0.7))
        assert np.max(np.abs(out - rho)) < 1e-14


class TestChannelSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            channels.ChannelSpec("dephasing", 0.1, 0.1)

    @pytest.mark.parametrize("p,mu", [(-0.1, 0.0), (1.1, 0.0), (0.0, -0.1), (0.0, 1.0001)])
    def test_rejects_out_of_range(self, p, mu):
        with pytest.raises(ValueError):
            channels.ChannelSpec("bit_flip", p, mu)

    def test_hashable(self):
        a = channels.ChannelSpec("bit_flip", 0.5, 0.25)
        b = channels.ChannelSpec("bit_flip", 0.5, 0.25)
        assert a == b and hash(a) == hash(b)

    @pytest.mark.parametrize("build,args,message", [
        (channels.pauli_memory_kraus, ("bit_flip", 0.3, -0.2), r"mu must be in \[0, 1\], got -0.2"),
        (channels.pauli_memory_kraus, ("depolarizing", 0.3, 1.2), r"mu must be in \[0, 1\], got 1.2"),
        (channels.ad_uncorrelated_kraus, (1.5,), r"p must be in \[0, 1\], got 1.5"),
        (channels.ad_correlated_kraus, (1.5,), r"p must be in \[0, 1\], got 1.5"),
    ], ids=["pauli-mu-below", "pauli-mu-above", "ad-uncorrelated", "ad-correlated"])
    def test_constructors_reject_out_of_range(self, build, args, message):
        # the public Kraus constructors apply the same checks as a spec
        with pytest.raises(ValueError, match=message):
            build(*args)


class TestBuildChannel:
    @pytest.mark.parametrize("kind", channels.KINDS)
    @pytest.mark.parametrize("p", GRID)
    @pytest.mark.parametrize("mu", GRID)
    def test_completeness_everywhere(self, kind, p, mu):
        ks = channels.build_channel(channels.ChannelSpec(kind, p, mu))
        assert ks.completeness_residual <= 1e-12
        assert channels.verify_completeness(ks) == ks.completeness_residual

    @pytest.mark.parametrize("kind", channels.KINDS)
    def test_noiseless_is_identity(self, kind):
        rng = np.random.default_rng(14)
        rho = random_density(rng)
        ks = channels.build_channel(channels.ChannelSpec(kind, 0.0, 0.3))
        assert np.max(np.abs(linalg.apply_kraus(rho, ks) - rho)) < 1e-13

    def test_amplitude_damping_mixture(self):
        # built set must act as (1-mu) * uncorrelated + mu * correlated
        p, mu = 0.37, 0.52
        rng = np.random.default_rng(15)
        rho = random_density(rng)
        ks = channels.build_channel(channels.ChannelSpec("amplitude_damping", p, mu))
        expected = ((1 - mu) * operator_sum(rho, channels.ad_uncorrelated_kraus(p))
                    + mu * operator_sum(rho, channels.ad_correlated_kraus(p)))
        assert np.max(np.abs(linalg.apply_kraus(rho, ks) - expected)) < 1e-13
        assert len(ks) == 18

    def test_amplitude_damping_memory_endpoints(self):
        assert len(channels.build_channel(channels.ChannelSpec("amplitude_damping", 0.3, 0.0))) == 16
        assert len(channels.build_channel(channels.ChannelSpec("amplitude_damping", 0.3, 1.0))) == 2


class TestKrausPathProperties:
    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(channels.KINDS), p=st.floats(0.0, 1.0),
           mu=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_cptp(self, kind, p, mu, seed):
        ks = channels.build_channel(channels.ChannelSpec(kind, p, mu))
        assert ks.completeness_residual <= linalg.COMPLETENESS_TOL
        rho = random_density(np.random.default_rng(seed))
        assert linalg.validate_density(linalg.apply_kraus(rho, ks)).ok


# The library builds its stacks from fixed tables by broadcasting; the
# best-response lattice has exact ties (alpha = -pi and +pi), so they must agree
# with the plain per-pattern np.kron stacks of tests/reference.py bit for bit,
# not merely within a tolerance.
EXACT_GRID = [float(x) for x in np.linspace(0.0, 1.0, 11)]


class TestExactStacks:
    @pytest.mark.parametrize("kind", channels.KINDS)
    def test_bit_identical_to_plain_kron(self, kind):
        for p in EXACT_GRID:
            for mu in EXACT_GRID:
                expected = reference.kraus_stack(kind, p, mu)
                got = channels.build_channel(channels.ChannelSpec(kind, p, mu)).stack
                assert got.shape == expected.shape, (kind, p, mu)
                assert np.array_equal(got, expected), (kind, p, mu)

    @pytest.mark.parametrize("kind", channels.PAULI_KINDS)
    @pytest.mark.parametrize("grid", ["sweep", "random"])
    def test_weights_match_python_chain(self, kind, grid):
        # the transfer-matrix product against the chain, pattern by pattern
        if grid == "sweep":
            p, mu = np.linspace(0.0, 1.0, 101), np.linspace(1.0, 0.0, 101)
        else:
            p, mu = np.random.default_rng(16).random((2, 1000))
        alpha = reference.mixture(kind, p)
        expected = np.stack([reference.chain_weight(alpha, mu, idx)
                             for idx in reference.PATTERNS], axis=1)
        assert channels.pauli_memory_weights(kind, p, mu).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kind", channels.PAULI_KINDS)
    def test_nonzero_entries_match_scaled_strings_bytewise(self, kind):
        # array_equal cannot see the sign of a zero, so every nonzero entry's bytes are
        # held to the full-string construction: the Pauli strings of linalg.tensor,
        # each times its sqrt(w) as a complex product
        strings = linalg.tensor(np.stack([linalg.pauli(i) for i in range(4)])
                                [np.array(reference.PATTERNS).T])
        for p in EXACT_GRID:
            for mu in EXACT_GRID:
                w = channels.pauli_memory_weights(kind, np.array([p]), np.array([mu]))[0]
                keep = w > 0.0
                want = strings[keep] * np.sqrt(w[keep]).astype(complex)[:, None, None]
                got = channels.build_channel(channels.ChannelSpec(kind, p, mu)).stack
                nonzero = want != 0
                assert np.array_equal(got != 0, nonzero), (p, mu)
                assert got[nonzero].tobytes() == want[nonzero].tobytes(), (p, mu)


class TestKrausSets:
    """The batched constructor against its own one-point case, ``build_channel``."""

    @pytest.mark.parametrize("kind", channels.KINDS)
    @pytest.mark.parametrize("grid", ["exact", "distinct-p"])
    def test_batch_matches_one_point_calls(self, kind, grid):
        if grid == "exact":  # p-major, so each p repeats 11 times in a row
            p, mu = np.repeat(EXACT_GRID, 11), np.tile(EXACT_GRID, 11)
        else:
            p, mu = np.linspace(0.0, 1.0, 121), np.random.default_rng(17).random(121)
        stacks = list(channels._kraus_sets(kind, p, mu))
        assert len(stacks) == len(p)
        for stack, p_i, mu_i in zip(stacks, p.tolist(), mu.tolist()):
            one = channels.build_channel(channels.ChannelSpec(kind, p_i, mu_i)).stack
            assert stack.shape == one.shape, (p_i, mu_i)
            assert stack.tobytes() == one.tobytes(), (p_i, mu_i)

    @pytest.mark.parametrize("kind", channels.KINDS)
    def test_stacks_are_fresh_writable_arrays(self, kind, monkeypatch):
        # validate's tamper hook scales a yielded stack in place, so no stack may share
        # memory with the Pauli column and phase tables, the damping tables or another stack
        tables = [channels._PAULI_COLUMNS, channels._PAULI_PHASES]
        for name in ("ad_uncorrelated_kraus", "ad_correlated_kraus"):
            monkeypatch.setattr(channels, name, lambda p, table=getattr(channels, name):
                                tables.append(table(p)) or tables[-1])
        p, mu = np.repeat(GRID, 5), np.tile(GRID, 5)
        stacks = list(channels._kraus_sets(kind, p, mu))
        assert len(stacks) == 25
        assert len(tables) == (2 if kind in channels.PAULI_KINDS else 12)
        for i, stack in enumerate(stacks):
            assert type(stack) is np.ndarray and stack.flags.writeable
            for other in tables + stacks[:i]:
                assert not np.shares_memory(stack, other)

    def test_module_tables_stay_small(self):
        # each Pauli string is kept as its 16 nonzero columns and phases, 96 KB for all
        # 256, where the strings themselves would take 1 MB
        arrays = {id(v): v for v in vars(channels).values() if isinstance(v, np.ndarray)}
        assert sum(array.nbytes for array in arrays.values()) < 256 * 2 ** 10

    @pytest.mark.parametrize("kind", channels.KINDS)
    def test_public_constructors_return_read_only_sets(self, kind):
        sets = [channels.build_channel(channels.ChannelSpec(kind, 0.3, 0.4))]
        if kind in channels.PAULI_KINDS:
            sets.append(channels.pauli_memory_kraus(kind, 0.3, 0.4))
        for ks in sets:
            assert type(ks) is linalg.KrausSet
            assert not ks.stack.flags.writeable
            with pytest.raises(ValueError):
                ks.stack[0, 0, 0] = 1.0

    @pytest.mark.parametrize("kind", channels.KINDS)
    @pytest.mark.parametrize("p, mu, bad", [
        ([0.2, 0.3, 1.5, 0.4, -1.0], [0.0, 0.5, 0.5, 2.0, 0.0], 2),
        ([0.3, 0.3, 0.3, 0.3], [0.0, 0.5, -0.25, 1.5], 2),
        ([0.1, 0.2, 0.3, 0.4], [0.0, 0.5, 1.0, float("nan")], 3),
    ], ids=["p", "mu-with-p-repeating", "last-nan"])
    def test_first_bad_point_raises_before_any_set(self, kind, p, mu, bad):
        with pytest.raises(ValueError) as spec_error:
            channels.ChannelSpec(kind, p[bad], mu[bad])
        sets = channels._kraus_sets(kind, np.array(p), np.array(mu))
        with pytest.raises(ValueError) as batch_error:
            next(sets)
        assert str(batch_error.value) == str(spec_error.value)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown channel kind 'dephasing'"):
            next(channels._kraus_sets("dephasing", [0.1], [0.1]))


@pytest.fixture(scope="module")
def pauli_signs():
    """The 256 Pauli strings in itertools.product order, built with np.kron, and
    the signs s[a, b] = +-1 of P_a P_b P_a+ = s[a, b] P_b."""
    strings = reference.PAULI_STRINGS
    signs = np.array([np.einsum("bij,bij->b", strings.conj(), a @ strings @ a.conj().T).real
                      for a in strings]) / 16
    assert np.array_equal(np.abs(signs), np.ones((256, 256)))
    return strings, signs


class TestChannelMaps:
    @pytest.mark.parametrize("kind", channels.KINDS)
    def test_matches_kraus_sum(self, kind):
        # one random state per (p, mu) point of the 5x5 grid, through the
        # batched map and through the retained Kraus path
        rng = np.random.default_rng(7)
        p, mu = (a.ravel() for a in np.meshgrid(GRID, GRID, indexing="ij"))
        states = np.stack([random_density(rng) for _ in p])
        got = channels.channel_maps(kind, p, mu)(states)
        for i in range(len(p)):
            ks = channels.build_channel(channels.ChannelSpec(kind, p[i], mu[i]))
            want = linalg.apply_kraus(states[i], ks)
            assert np.max(np.abs(got[i] - want)) < 1e-14

    @pytest.mark.parametrize("kind", channels.PAULI_KINDS)
    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("mu", [0.0, 0.3, 1.0])
    def test_pauli_strings_are_eigenvectors(self, kind, p, mu, pauli_signs):
        # P_b -> sum_a w_a P_a P_b P_a+ = lambda_b P_b with lambda_b = sum_a w_a s_ab
        strings, signs = pauli_signs
        w = channels.pauli_memory_weights(kind, np.array([p]), np.array([mu]))[0]
        got = channels.channel_maps(kind, np.full(256, p), np.full(256, mu))(strings)
        assert np.max(np.abs(got - (w @ signs)[:, None, None] * strings)) < 1e-14

    @pytest.mark.parametrize("kind", channels.KINDS)
    @pytest.mark.parametrize("p,mu", [(0.3, 0.6), (0.0, 0.5), (1.0, 0.0), (0.6, 1.0)])
    def test_each_xor_band_maps_to_itself(self, kind, p, mu):
        # every Kraus operator is a bit shift times a diagonal, so a state held on
        # the band rho[i, i ^ d] comes out with exact zeros off that band, for
        # each of the 16 values of d
        off_band = (np.arange(16)[:, None] ^ np.arange(16)) != np.arange(16)[:, None, None]
        rng = np.random.default_rng(5)
        states = np.where(off_band, 0.0,
                          rng.normal(size=(16, 16, 16)) + 1j * rng.normal(size=(16, 16, 16)))
        kraus = channels.build_channel(channels.ChannelSpec(kind, p, mu))
        maps = channels.channel_maps(kind, np.full(16, p), np.full(16, mu))
        for out in (kraus(states), maps(states)):
            assert np.count_nonzero(out[np.logical_not(off_band)]) > 0
            assert np.count_nonzero(out[off_band]) == 0

    def test_damping_edges_on_non_hermitian_matrices(self):
        # the map is linear on any matrix, so a non-hermitian input shows a transposed
        # or unconjugated transfer that a density matrix hides; p and mu at 0 and 1
        # take keep ** 0 and 0 ** 0, which must be 1. A single matrix broadcasts to
        # every point, as _pre_move_state passes it for a chunk with one gamma
        p, mu = (a.ravel() for a in np.meshgrid([0.0, 0.4, 1.0], [0.0, 0.6, 1.0],
                                                indexing="ij"))
        rng = np.random.default_rng(13)
        states = rng.normal(size=(len(p), 16, 16)) + 1j * rng.normal(size=(len(p), 16, 16))
        noise = channels.channel_maps("amplitude_damping", p, mu)
        stacked, broadcast = noise(states), noise(states[0])
        for i in range(len(p)):
            kraus = channels.build_channel(
                channels.ChannelSpec("amplitude_damping", p[i], mu[i]))
            assert np.max(np.abs(stacked[i] - kraus(states[i]))) <= 1e-14
            assert np.max(np.abs(broadcast[i] - kraus(states[0]))) <= 1e-14

    @pytest.mark.parametrize("kind", channels.KINDS)
    def test_single_state_broadcasts(self, kind):
        noise = channels.channel_maps(kind, np.array([0.0, 0.3, 1.0]),
                                      np.array([0.7, 0.3, 1.0]))
        state = random_density(np.random.default_rng(11))
        got = noise(state)
        assert got.shape == (3, 16, 16)
        assert np.max(np.abs(got - noise(np.stack([state] * 3)))) <= 1e-15

    @pytest.mark.parametrize("kind", ["bit_flip", "amplitude_damping"])
    @pytest.mark.parametrize("p,mu,message", [
        ([0.1, 0.2], [0.1, 1.5], r"mu must be in \[0, 1\], got 1.5"),
        ([0.1, 1.5], [-0.5, 0.2], r"mu must be in \[0, 1\], got -0.5"),
        ([1.5], [-0.5], r"p must be in \[0, 1\], got 1.5"),
        ([0.2, np.nan], [0.3, 0.3], r"p must be in \[0, 1\], got nan"),
        ([0.2, 0.3], [0.3, np.nan], r"mu must be in \[0, 1\], got nan"),
    ], ids=["bad-mu", "earlier-point-wins", "p-before-mu", "nan-p", "nan-mu"])
    def test_rejects_out_of_range(self, kind, p, mu, message):
        with pytest.raises(ValueError, match=message):
            channels.channel_maps(kind, np.array(p), np.array(mu))

    def test_rejects_non_cptp_weights(self, monkeypatch):
        weights = channels.pauli_memory_weights
        monkeypatch.setattr(channels, "pauli_memory_weights",
                            lambda *args: 0.5 * weights(*args))
        with pytest.raises(ValueError, match="not CPTP"):
            channels.channel_maps("depolarizing", np.array([0.3]), np.array([0.3]))
