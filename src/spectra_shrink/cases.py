"""Built-in simulation spectra: the bias rows, risk rows, and spiked cases.

Values are recorded exactly as tabulated; rows whose printed entries do
not add up to one are normalized implicitly wherever rates are formed,
since contribution rates only depend on the spectrum up to scale.
"""

from __future__ import annotations

from .core import Spectrum

__all__ = [
    "TABLE1_SPECTRA",
    "TABLE2_SPECTRA",
    "SPIKED_CASES",
    "table1_spectrum",
    "table2_spectrum",
    "spiked_case",
    "named_spectrum",
]

#: Bias-study spectra (11 rows).
TABLE1_SPECTRA: tuple[tuple[float, ...], ...] = (
    (0.100,) * 10,
    (0.120,) * 5 + (0.080,) * 5,
    (0.140,) * 5 + (0.060,) * 5,
    (0.160,) * 5 + (0.040,) * 5,
    (0.180,) * 5 + (0.020,) * 5,
    (0.198,) * 5 + (0.002,) * 5,
    (0.200,) + (0.089,) * 9,
    (0.400,) + (0.067,) * 9,
    (0.600,) + (0.044,) * 9,
    (0.800,) + (0.022,) * 9,
    (0.990,) + (0.001,) * 9,
)

#: Quadratic-risk spectra (18 rows).
TABLE2_SPECTRA: tuple[tuple[float, ...], ...] = tuple(
    [
        tuple([0.10 + 0.01 * k] * 5 + [0.10 - 0.01 * k] * 5)
        for k in range(10)
    ]
    + [
        (0.20,) + (0.09,) * 9,
        (0.30,) + (0.08,) * 9,
        (0.40,) + (0.07,) * 9,
        (0.50,) + (0.06,) * 9,
        (0.60,) + (0.04,) * 9,
        (0.70,) + (0.03,) * 9,
        (0.80,) + (0.02,) * 9,
        (0.90,) + (0.01,) * 9,
    ]
)

#: Spiked covariance cases 1-10: the factor spikes over noise variance one,
#: dimension ten. Population eigenvalues are spike + 1 over ones.
_SPIKES: tuple[tuple[float, ...], ...] = (
    (18.0,) * 5,
    (22.5,) * 4,
    (30.0,) * 3,
    (45.0,) * 2,
    (90.0,),
    (26.0, 22.0, 18.0, 14.0, 10.0),
    (31.0, 24.5, 18.0, 11.5, 5.0),
    (36.0, 27.0, 18.0, 9.0),
    (45.0, 30.0, 15.0),
    (80.0, 10.0),
)

SPIKED_CASES: tuple[Spectrum, ...] = tuple(
    Spectrum(tuple(1.0 + s for s in spikes) + (1.0,) * (10 - len(spikes))) for spikes in _SPIKES
)


def table1_spectrum(row: int) -> Spectrum:
    """Bias-study spectrum by 1-based row number."""
    if not 1 <= row <= len(TABLE1_SPECTRA):
        raise ValueError(f"bias table rows run 1..{len(TABLE1_SPECTRA)}, got {row}")
    return Spectrum(TABLE1_SPECTRA[row - 1])


def table2_spectrum(row: int) -> Spectrum:
    """Risk-study spectrum by 1-based row number."""
    if not 1 <= row <= len(TABLE2_SPECTRA):
        raise ValueError(f"risk table rows run 1..{len(TABLE2_SPECTRA)}, got {row}")
    return Spectrum(TABLE2_SPECTRA[row - 1])


def spiked_case(case: int) -> Spectrum:
    """Population spectrum of a spiked covariance case by 1-based number."""
    if not 1 <= case <= len(SPIKED_CASES):
        raise ValueError(f"spiked cases run 1..{len(SPIKED_CASES)}, got {case}")
    return SPIKED_CASES[case - 1]


def named_spectrum(name: str) -> Spectrum:
    """Resolve a named built-in spectrum.

    Accepts ``uniform10``, ``table1:<row>``, ``table2:<row>`` and
    ``case:<k>`` (the population spectrum of a spiked case).
    """
    if name == "uniform10":
        return table1_spectrum(1)
    for prefix, resolver in (
        ("table1:", table1_spectrum), ("table2:", table2_spectrum), ("case:", spiked_case)
    ):
        if name.startswith(prefix):
            try:
                index = int(name[len(prefix) :])
            except ValueError:
                raise ValueError(f"malformed spectrum name {name!r}") from None
            return resolver(index)
    raise ValueError(f"unknown spectrum name {name!r}")
