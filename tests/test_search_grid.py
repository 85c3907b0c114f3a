"""The separable search on a rational grid, against the former multistart.

The grid is the first 80 distinct problems drawn by ``random.Random(5)``: d in
{1, 2, 3}, then s, s1, s2 in {0, 1/3, 1/2, 1, 3/2, 2, 5/2}, then p, p1, p2 in
{1, 3/2, 2, 3, 4, inf}, skipping inadmissible and structurally empty draws.
Each row pins the value the 0.3.0 default multistart (32 x 32, seed 0)
certified, or None where it exhausted its search.
"""

import hashlib
import math
from fractions import Fraction

import pytest

from gnsbound.errors import EmptyFeasibleError
from gnsbound.exponents import GnsProblem, LebesgueExponent
from gnsbound.feasible import sigma_lower_bound
from gnsbound.optimizer import certificate_json, minimize

# (d, s, s1, s2, p, p1, p2, value at version 0.3.0)
GRID = [
    (2, "1/3", "3/2", "2", "inf", "3/2", "3/2", 1.8582505869966053),
    (2, "1/2", "5/2", "1/2", "3", "inf", "2", 56.07812213728242),
    (1, "1", "1", "2", "3/2", "1", "2", 6.983803128060941),
    (1, "2", "1/2", "5/2", "3", "1", "4", 2.830608775810314),
    (3, "2", "5/2", "5/2", "2", "2", "1", 0.7803028600660488),
    (1, "1/2", "1/2", "2", "4", "1", "2", 2.48210461998336),
    (1, "0", "2", "0", "3", "2", "3/2", 6.895774700706592),
    (2, "3/2", "5/2", "3/2", "4", "2", "1", 1.3596104553575206),
    (2, "1/2", "2", "1/2", "inf", "3", "2", 2.0164792548272783),
    (1, "3/2", "5/2", "3/2", "4", "inf", "3", 36.367996628587896),
    (2, "3/2", "3/2", "5/2", "inf", "2", "inf", 7.667317250955326),
    (2, "1/2", "1", "2", "4", "1", "4", 2.1386845290021443),
    (2, "1", "5/2", "3/2", "inf", "4", "2", 4.334829575935636),
    (1, "1/3", "3/2", "0", "2", "inf", "1", 9.764284666534405),
    (2, "0", "1/2", "1/2", "3", "2", "3/2", 2.1836960358409194),
    (2, "0", "0", "2", "4", "3", "3/2", 23.474556738674593),
    (2, "1/2", "5/2", "1/3", "inf", "2", "2", 1.6618133470723373),
    (3, "1/2", "3/2", "1/2", "inf", "4", "1", 1.9095788260807263),
    (2, "1/2", "1/2", "2", "inf", "4", "3/2", 3.676847467818249),
    (2, "1", "2", "5/2", "inf", "3/2", "2", 1.173102858581507),
    (1, "1/2", "0", "3/2", "4", "1", "inf", 7.10217490636015),
    (3, "1/3", "0", "2", "4", "3", "inf", 202.47528790889243),
    (3, "1", "1/3", "3/2", "3/2", "1", "2", 11.511226206628404),
    (2, "3/2", "5/2", "1", "4", "inf", "3/2", 17.09875740154865),
    (3, "0", "5/2", "1/2", "inf", "3", "3/2", 0.9473379391585725),
    (3, "1/3", "5/2", "1/2", "2", "1", "1", 0.9509995727484322),
    (2, "1/2", "0", "5/2", "3", "4", "3/2", None),
    (2, "1/3", "1/2", "1/3", "2", "2", "1", 1.6835108035924684),
    (2, "0", "0", "1/3", "3", "1", "inf", 25.645365277763446),
    (1, "0", "5/2", "0", "inf", "2", "2", 11.061497891290998),
    (3, "2", "5/2", "2", "4", "inf", "3", 71.63151996358377),
    (2, "1/3", "1", "1", "4", "4", "3/2", 1.773432775702376),
    (1, "2", "5/2", "2", "2", "inf", "1", 12.795838969457389),
    (1, "1", "1/3", "5/2", "4", "1", "2", 2.3288380696991964),
    (2, "1/3", "1/2", "1", "inf", "inf", "1", 29.784361175253657),
    (3, "0", "1/2", "1", "2", "1", "4", 1.0855743268766065),
    (3, "1", "5/2", "3/2", "inf", "inf", "4", 29.148705944949945),
    (1, "1/2", "1/3", "5/2", "inf", "2", "2", 3.4802096186993445),
    (1, "1/3", "1/2", "3/2", "inf", "4", "1", 21.18395760627524),
    (2, "0", "0", "2", "3", "2", "2", 10.479002836475898),
    (2, "1", "3/2", "3/2", "3", "3/2", "4", 1.7402653574221665),
    (1, "1/3", "1", "2", "inf", "1", "1", 4.8755723117301155),
    (1, "3/2", "1/2", "5/2", "4", "2", "3", 1.7687385932438635),
    (1, "2", "2", "5/2", "2", "1", "3", 3.856853405292094),
    (2, "1", "1/2", "5/2", "4", "2", "3", 2.6771788399807286),
    (2, "0", "0", "5/2", "inf", "2", "4", 6.489571661957503),
    (1, "1/2", "0", "5/2", "inf", "3", "2", 5.303703945693407),
    (2, "3/2", "5/2", "3/2", "inf", "4", "2", 2.1437446010578904),
    (2, "3/2", "1", "5/2", "inf", "3/2", "inf", 8.729972681246394),
    (3, "0", "3/2", "2", "4", "1", "3/2", 0.30228886602081506),
    (1, "1/2", "3/2", "1/2", "inf", "inf", "1", 4.559014113909586),
    (3, "3/2", "1/2", "5/2", "3", "2", "4", 7.421212058547496),
    (1, "1/2", "5/2", "0", "4", "2", "1", 3.324414998975022),
    (3, "3/2", "0", "5/2", "4", "4", "3", 3.6239924282134433),
    (1, "1/3", "0", "1", "2", "1", "2", 2.1402609565885173),
    (1, "2", "5/2", "2", "4", "3", "2", 5.383692946925396),
    (2, "1/2", "3/2", "1/2", "3/2", "1", "1", 3.0851348701283245),
    (3, "0", "1/3", "1/2", "2", "3/2", "4", 1.6297645679019623),
    (3, "2", "5/2", "2", "4", "3", "3/2", 1.8519646565186267),
    (1, "3/2", "1", "5/2", "4", "inf", "1", 10.911563470591009),
    (3, "1/3", "1/2", "1", "2", "1", "inf", 18.398785057775807),
    (2, "1/2", "2", "0", "4", "3/2", "1", 0.9901641812366891),
    (1, "1", "2", "3/2", "inf", "inf", "3/2", 16.27248426093807),
    (1, "1", "3/2", "1", "inf", "4", "2", 3.1081993849627376),
    (2, "1/3", "1/2", "1", "2", "3/2", "2", 1.8840997382662468),
    (2, "1/2", "5/2", "1/3", "4", "3/2", "2", 3.164883112742292),
    (2, "1/3", "2", "0", "4", "3", "3/2", 2.116200145396358),
    (1, "1", "2", "1", "4", "3/2", "3", 27.790818569194418),
    (2, "1/2", "3/2", "1/2", "3", "3", "3/2", 3.385035490969483),
    (1, "1/2", "1/3", "1", "2", "2", "2", 18.636641635935216),
    (3, "1/3", "1", "1/3", "3", "3", "2", 4.733600893321374),
    (1, "1", "5/2", "1/3", "4", "1", "inf", 33.03145716206058),
    (3, "1/3", "1/3", "3/2", "3", "2", "4", 8.311536939978572),
    (3, "1/3", "5/2", "0", "3", "1", "3/2", 1.2278103358354469),
    (2, "1/3", "2", "0", "3", "1", "3", 5.384690376934501),
    (3, "0", "1/3", "2", "inf", "4", "3", 7.241119069894163),
    (1, "1/2", "1/2", "2", "inf", "3", "1", 5.173614764212482),
    (3, "1/2", "1/2", "5/2", "3/2", "1", "3", 6.307354406071638),
    (3, "0", "2", "1", "inf", "4", "2", 3.8775737266637336),
    (3, "3/2", "2", "5/2", "4", "1", "2", 1.2767768247303493),
]
# The multistart stopped at a 1e-9 spread in log value.
PINNED_RTOL = 1e-8
# sha256 of the grid's certificate JSON in GRID order, "exhausted\n" for none:
# a change that claims byte-identical certificates must keep it.
GRID_SHA256 = "5b96bfd679c75abb79736a60a4e0856c619fd98069330289758a2402188c05cf"


def _problem(row):
    d, *orders = row[:4]
    exps = row[4:7]
    return GnsProblem(
        d, *(float(Fraction(x)) for x in orders), *(LebesgueExponent.parse(x) for x in exps)
    )


@pytest.fixture(scope="module")
def certificates():
    found = {}
    for row in GRID:
        try:
            found[row] = minimize(_problem(row))
        except EmptyFeasibleError:
            found[row] = None
    return found


def test_grid_is_the_seeded_draw():
    assert len(GRID) == len(set(row[:7] for row in GRID)) == 80
    assert sum(row[7] is None for row in GRID) == 1


def test_no_value_above_the_multistart(certificates):
    for row, cert in certificates.items():
        pinned = row[7]
        if pinned is None:
            continue  # exhausted before; a certificate is allowed
        assert cert is not None, row
        assert cert.value <= pinned * (1.0 + PINNED_RTOL), row


def test_witness_orders_are_in_one_regime(certificates):
    # each shifted order has the same sign, and is an even integer or not,
    # in floats as the bound evaluates it and in Fractions of the float inputs
    def regime(x):
        return (x > 0) - (x < 0), x >= 0 and x == 2 * math.floor(x / 2)

    for row, cert in certificates.items():
        if cert is None:
            continue
        oriented, _ = cert.problem.oriented()
        sigma = cert.point.sigma
        for s_j in (oriented.s1, oriented.s2):
            rounded = oriented.s + 2.0 * sigma - s_j
            exact = Fraction(oriented.s) + 2 * Fraction(sigma) - Fraction(s_j)
            assert regime(rounded) == regime(exact), (row, s_j)


def test_sigma_window_is_not_binding(certificates):
    # no witness sigma lies in the top 1% of the searched window, so a wider
    # window would not be expected to find a lower value
    for row, cert in certificates.items():
        if cert is None:
            continue
        lb = sigma_lower_bound(cert.problem.oriented()[0])
        assert cert.point.sigma <= lb + 0.99 * cert.sigma_window, row


def test_certificate_bytes_are_pinned(certificates):
    digest = hashlib.sha256()
    for row in GRID:
        cert = certificates[row]
        digest.update((certificate_json(cert) if cert is not None else "exhausted\n").encode())
    assert digest.hexdigest() == GRID_SHA256
