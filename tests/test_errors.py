"""The error hierarchy of :mod:`repro.errors`."""

import pickle

from repro.errors import NonDeterminismError


class TestPickling:
    def test_errors_roundtrip(self):
        error = NonDeterminismError("conflicting values for s1")
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, NonDeterminismError)
        assert str(clone) == str(error)
