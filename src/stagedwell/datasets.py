"""Built-in demographic dataset: the Southern Fulmar breeding cycle.

Four stages (pre-breeder, successful breeder, failed breeder, non-breeder)
with one transition matrix per sea-ice condition, after the published rates
of Jenouvrier, Peron and Weimerskirch (2015). Columns hold the outgoing
probabilities of a stage; the deficit of each column from 1 is that stage's
yearly mortality.
"""

FULMAR_STATES = (
    "pre-breeder",
    "successful breeder",
    "failed breeder",
    "non-breeder",
)

# Breeders of either outcome; the default target set for breeding-attempt
# counts (indices 1 and 2 of FULMAR_STATES).
FULMAR_BREEDING_STATES = ("successful breeder", "failed breeder")

_FAVOURABLE = (
    (0.828, 0.0, 0.0, 0.0),
    (0.06624, 0.72912, 0.62244, 0.40176),
    (0.02576, 0.18228, 0.24206, 0.15624),
    (0.0, 0.0186, 0.0455, 0.342),
)

_ORDINARY = (
    (0.9016, 0.0, 0.0, 0.0),
    (0.011408, 0.66737, 0.49312, 0.1809),
    (0.006992, 0.18823, 0.24288, 0.0891),
    (0.0, 0.0744, 0.184, 0.63),
)

_UNFAVOURABLE = (
    (0.9154, 0.0, 0.0, 0.0),
    (0.002392, 0.4873, 0.25147, 0.0468),
    (0.002208, 0.1895, 0.23213, 0.0432),
    (0.0, 0.2632, 0.4464, 0.81),
)


# the yearly matrices by condition, in favourable, ordinary, unfavourable order
FULMAR_MATRICES = {"U_f": _FAVOURABLE, "U_o": _ORDINARY, "U_u": _UNFAVOURABLE}
