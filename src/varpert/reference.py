"""Embedded reference values for the check mode.

These are the published comparison constants the reports are checked
against, kept in the reporting layer so the physics modules never see
them. Table values are in eV (the stiffness rows in eV/A^2), helium
values in ryd.
"""
from __future__ import annotations

import sys

# ground state, k = 0.5 eV/A^2, columns by quartic coefficient b
TABLE1 = {
    0.01: {"conventional_pt2": 1.4318427, "variational": 1.4333279,
           "present": 1.4327276, "exact": 1.4327725,
           "half_m_omega2": 0.5770839},
    0.05: {"conventional_pt2": 1.5279252, "variational": 1.5968858,
           "present": 1.5912088, "exact": 1.5922195,
           "half_m_omega2": 0.8227827},
    # the order-2 conventional value is printed as non-convergent here
    0.25: {"variational": 2.0664772, "present": 2.0412648,
           "exact": 2.0474629, "half_m_omega2": 1.6423320},
}
PT_DIVERGENT = ((0, 0.25),)  # (level, b)

# first/second order comparison at b = 0.05, ground state
TABLE2 = {
    "conventional_pt1": 1.6659633,
    "conventional_pt2": 1.5279252,
    "variational": 1.5968858,
    "present": 1.5912088,
}

# first excited state at b = 0.05
TABLE3 = {
    "conventional_pt2": 4.484801,
    "variational": 5.106102,
    "present": 5.092412,
    "exact": 5.091282,
    "half_m_omega2": 0.990354,
}

# every published oscillator cell by (level, b); Table 2's order-1 cell
# joins Table 1's b = 0.05 column
PUBLISHED = {(0, b): cells for b, cells in TABLE1.items()} | {
    (0, 0.05): TABLE1[0.05] | {"conventional_pt1": TABLE2["conventional_pt1"]},
    (1, 0.05): TABLE3}

HELIUM = {
    "z_star": 1.6875,
    "e_variational": -5.6953,
    "e_second": -0.0249,
    "e_total": -5.7202,
    "z_star_excited": 1.8497,
    "e_excited": -4.2765,
}

# experimental comparison constants (report layer only)
EXPERIMENTAL_GROUND_RYD = -5.8070
EXPERIMENTAL_EXCITED_RYD = -4.3504

# check tolerances
TOL_TABLE_EV = 2e-4
TOL_HELIUM_ZSTAR = 1e-4
TOL_HELIUM_VARIATIONAL = 1e-4
TOL_HELIUM_SECOND = 1e-3
TOL_CROSS_ORACLE_EV = 1e-5
# relative floor of the cross-oracle bound, in force above about 1.4e9 eV:
# shooting stops at an 8-ulp bracket and the diagonalization adds a few
# ulps of its own; levels 0-20 at k = 0.5 and b from 1e9 to 7e299 agree
# within 17.2 ulps of E
TOL_CROSS_ORACLE_REL = 32 * sys.float_info.epsilon
