import math
from fractions import Fraction

import pytest

from syzlab import calabi as cal
from syzlab import mirror
from syzlab import semiflat as sfm
from syzlab.errors import ValidationError


class TestMirrorMap:
    def test_square_example(self):
        data = mirror.mirror_map(1, 2j, 1, tau_exact=(Fraction(0), Fraction(2)))
        assert data.alpha_q == pytest.approx(2.0)
        assert data.v_check == pytest.approx(0.5)
        assert data.v_mirror == pytest.approx(2.0)
        assert data.product_exact == Fraction(1)
        assert data.sf_class == cal.STANDARD
        assert data.exact

    def test_multiplicity_scales_both_sides(self):
        data = mirror.mirror_map(1, 1j, 3, tau_exact=(Fraction(0), Fraction(1)))
        assert data.alpha_q == pytest.approx(1.0 / 3.0)
        assert data.v_mirror == pytest.approx(1.0)
        assert data.product == pytest.approx(1.0)

    def test_hexagonal_quasi_regular(self):
        tau = complex(-0.5, 0.5 * math.sqrt(3.0))
        data = mirror.mirror_map(3, tau, 2)
        assert data.sf_class == cal.QUASI_REGULAR
        assert data.product == pytest.approx(1.0, rel=1e-14)

    def test_random_exact_products(self):
        import random
        rng = random.Random(20260826)
        for _ in range(50):
            re = Fraction(rng.randint(-40, 40), rng.randint(1, 20))
            im = Fraction(rng.randint(1, 60), rng.randint(1, 20))
            m = rng.randint(1, 9)
            k = rng.randint(1, 9)
            data = mirror.mirror_map(k, complex(float(re), float(im)), m,
                                     tau_exact=(re, im))
            assert data.product_exact == Fraction(1)
            assert data.alpha_q_exact == im / m
            assert data.exact

    def test_standard_iff_rectangular(self):
        on_axis = mirror.mirror_map(2, 3j, 1, tau_exact=(Fraction(0), Fraction(3)))
        assert on_axis.sf_class == cal.STANDARD
        off_axis = mirror.mirror_map(
            2, complex(0.5, 3.0), 1,
            tau_exact=(Fraction(1, 2), Fraction(3)))
        assert off_axis.sf_class != cal.STANDARD

    def test_v_check_decreasing_in_im_tau(self):
        vols = [mirror.mirror_map(1, 1j * t, 1).v_check
                for t in (1.0, 2.0, 5.0, 10.0)]
        assert all(a > b for a, b in zip(vols, vols[1:]))

    def test_validation(self):
        with pytest.raises(ValidationError):
            mirror.mirror_map(1, complex(1.0, -2.0), 1)
        with pytest.raises(ValidationError):
            mirror.mirror_map(1, 2j, 0)
        with pytest.raises(ValidationError):
            mirror.mirror_map(10, 2j, 1)
        with pytest.raises(ValidationError):
            mirror.mirror_map(1, 2j, 1, tau_exact=(Fraction(1), Fraction(2)))

    def test_irrational_sentinel(self):
        data = mirror.mirror_map(1, complex(-0.3, 1.1), 1,
                                 ratio_irrational=True)
        assert data.sf_class == cal.IRREGULAR
        assert data.exact


class TestDualityReport:
    def test_dims_consistency(self):
        for k in range(1, 10):
            sf_dim, h2_dim, hk_dim = sfm.moduli_dims(k)
            assert sf_dim == 10 - k
            assert h2_dim == sf_dim + 1
            assert hk_dim == sf_dim
