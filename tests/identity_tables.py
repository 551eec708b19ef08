"""Reference tables for (n, k) = (12, 4), tabulated by hand.

The E_p identities themselves ship with the package as a hand-tabulated
table, read here through ``load_identity_fixtures``; the quadratic's
reference coefficients are ``elimination.REFERENCE_C1``/``REFERENCE_C2``.
The strings below are kept in a fixed hand-written term order and parsed,
never generated, so they are an independent check on the expansion and
elimination machinery.
"""

from importlib import resources

from ksumlab.symfunc import load_identity_fixtures


def shipped_identities():
    """The package's E_p table, {p: polynomial in S_2..S_p}."""
    text = resources.files("ksumlab").joinpath("fixtures/identities_k4_n12.txt").read_text()
    return load_identity_fixtures(text.splitlines())


# Solved forms of the first four equations: S_p in the E-variables.
LOW_TABLE = {
    2: "1/120*E2",
    3: "1/48*E3",
    4: "7/57600*E2^2 - 1/48*E4",
    5: "7/34560*E2*E3 - 1/120*E5",
}

# Closed form for the second root of the S_6 quadratic, given the power sums
# of one realizing set: coefficient of each listed S-monomial (the last
# three are divided by S_2).
SECOND_ROOT_TABLE = {
    "S2^3": "-556877605/796368672",
    "S3^2": "562115611087/46487926782",
    "S2*S4": "762093077/66364056",
    "S6": "-1990577/47223",
    "S3*S5/S2": "-4217456129563/116219816955",
    "S4^2/S2": "-14623247/1301256",
    "S8/S2": "2359787/31482",
}

# Predicted S_7 in the degenerate two-root situation.
S7_CONDITION_TABLE = {
    "S3*S2^2": "-1494661249487/4501080325368",
    "S2*S5": "217002961/417230286",
    "S3*S4": "3678199/2599908",
}
