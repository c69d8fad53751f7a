import pytest

from surdcf.engine import expand_sqrt
from surdcf.exact import DomainError
from surdcf.families import FamilyValidityError, family_by_id, instantiate
from surdcf.miner import mine, mine_sweep


def assert_family_verifies(fam, upto=50):
    for c in range(fam.min_c, fam.min_c + upto):
        a, b = fam.a_of(c), fam.b_of(c)
        cf = expand_sqrt(a * a + b)
        assert cf.a0 == a and cf.period == (*fam.palindrome, 2 * a), (fam, c)


class TestMine:
    def test_pattern_22(self):
        fam = mine([2, 2])
        assert (fam.a_residue, fam.a_modulus) == (1, 5)
        assert (fam.b_slope, fam.b_const) == (4, 1)
        assert fam.min_c == 1
        assert fam.d_of(1) == 41 and expand_sqrt(41).as_list() == [6, 2, 2, 12]
        assert_family_verifies(fam)

    def test_pattern_11_unsolvable(self):
        # congruence oracle: 2a + 1 is odd, never divisible by 2
        assert all((2 * a + 1) % 2 == 1 for a in range(50))
        assert mine([1, 1]) is None

    def test_empty_palindrome_is_unit_family(self):
        fam = mine([])
        assert (fam.a_residue, fam.a_modulus) == (0, 1)
        assert (fam.b_slope, fam.b_const) == (0, 1)
        assert fam.min_c == 1
        assert_family_verifies(fam)

    def test_single_even_entry_reproduces_length2_family(self):
        fam = mine([4])
        assert (fam.a_residue, fam.a_modulus) == (0, 2)
        assert (fam.b_slope, fam.b_const) == (1, 0)
        assert fam.min_c == 2       # c = 2 is d = 18 = [4; 4, 8]
        assert fam.d_of(2) == 18
        assert_family_verifies(fam)

    def test_non_palindrome_rejected(self):
        with pytest.raises(DomainError):
            mine([1, 2])

    def test_entry_below_one_rejected(self):
        with pytest.raises(DomainError):
            mine([1, 0, 1])

    def test_no_pair_with_wings_12(self):
        # evidence for the claimed non-existence of 1,2,2m,2m,2,1 patterns
        for m in range(1, 7):
            assert mine([1, 2, 2 * m, 2 * m, 2, 1]) is None


class TestMineSweep:
    def test_len0(self):
        fams = mine_sweep(0, 3)
        assert len(fams) == 1 and fams[0].palindrome == ()

    def test_len2_includes_22(self):
        fams = {f.palindrome: f for f in mine_sweep(2, 2)}
        assert (2, 2) in fams
        assert (1, 1) not in fams

    def test_len1_slices(self):
        fams = {f.palindrome: f for f in mine_sweep(1, 4)}
        # singleton palindromes give the two period-2 ladders' fixed-m slices
        assert fams[(1,)].a_modulus == 1 and fams[(1,)].b_slope == 2
        assert fams[(2,)].a_modulus == 1 and fams[(2,)].b_slope == 1
        assert fams[(3,)].a_modulus == 3 and fams[(3,)].b_slope == 2
        assert fams[(4,)].a_modulus == 2 and fams[(4,)].b_slope == 1

    def test_deterministic_order(self):
        pals = [f.palindrome for f in mine_sweep(3, 3)]
        assert pals == sorted(pals, key=lambda p: (len(p), p))
        assert pals[0] == ()

    def test_jobs_identical_output(self):
        assert mine_sweep(3, 2, jobs=4) == mine_sweep(3, 2)

    def test_sweep_families_verify(self):
        for fam in mine_sweep(3, 3):
            assert_family_verifies(fam, upto=20)

    def test_engine_confirms_every_family_far_out(self):
        # The engine is the oracle for the realisation identity that mine
        # checks: at the five checked instances, and a million heads on.
        fams = mine_sweep(7, 6)
        assert len(fams) == 1441
        for fam in fams:
            for c in [*range(fam.min_c, fam.min_c + fam.verified_instances), fam.min_c + 10**6]:
                a, b = fam.a_of(c), fam.b_of(c)
                cf = expand_sqrt(a * a + b)
                assert cf.a0 == a and cf.period == (*fam.palindrome, 2 * a), (fam, c)


class TestRegistryConsistency:
    # each registry family with a constant palindrome and fixed m must have
    # its instances contained in the mined family's instance set
    CASES = [
        ("l2-2m", {"m": 2}, (4,)),
        ("l2-m", {"m": 3}, (3,)),
        ("perron-l3", {"m": 1}, (2, 2)),
        ("l6-c1", {}, (2, 2, 1, 2, 2)),
        # the miner re-derives the corrected form of the printed erratum
        ("l7-a-m1", {}, (1, 1, 1, 1, 1, 1)),
        ("l7-a-m2", {}, (1, 1, 2, 2, 1, 1)),
        ("l9-b", {}, (1, 1, 2, 4, 4, 2, 1, 1)),
    ]

    @pytest.mark.parametrize("fid,fixed,palindrome", CASES)
    def test_contains_registry_instances(self, fid, fixed, palindrome):
        fam = family_by_id(fid)
        mined = mine(list(palindrome))
        assert mined is not None
        n_lo = next(p.lo for p in fam.params if p.name == "n")
        sampled = 0
        n = n_lo
        while sampled < 10:
            try:
                d, cf = instantiate(fam, dict(fixed, n=n))
            except FamilyValidityError:
                n += 1
                continue
            a, b = cf.a0, d - cf.a0 * cf.a0
            q, r = divmod(a - mined.a_residue, mined.a_modulus)
            assert r == 0 and q >= mined.min_c, (fid, n)
            assert mined.b_of(q) == b, (fid, n)
            sampled += 1
            n += 1
