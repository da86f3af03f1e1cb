import pytest

from revcomp import asymptotic


@pytest.fixture(autouse=True)
def rows_bracket_their_counts():
    """Every ``gamma_k`` row any test makes, through the library or the
    CLI and on every solver, has ``1 <= lower <= blocks`` and is proved
    exactly when ``lower == blocks``."""
    rows = asymptotic._rows

    def checked(channel, epsilon, ks, solver):
        result = rows(channel, epsilon, ks, solver)
        for row in result:
            assert 1 <= row.lower <= row.block_count, row
            assert row.proved == (row.lower == row.block_count), row
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(asymptotic, "_rows", checked)
        yield
