"""The per-subset verification path, kept as a reference for the tests.

It superimposes and checks each t-subset on its own, the way
`verify_set_orthogonality` worked before it walked the prefix tree.
"""

import itertools

from molsnet import SubsetVerdict, is_t_orthogonal, superimpose


def per_subset_verdicts(mols, t):
    """The verdict of every t-subset, in index order."""
    verdicts = []
    for combo in itertools.combinations(range(1, len(mols.squares) + 1), t):
        array = superimpose([mols.squares[i - 1] for i in combo], combo)
        verdicts.append(SubsetVerdict(combo, is_t_orthogonal(array)))
    return tuple(verdicts)
