"""Hypothesis profiles for the whole suite.

The default profile is Hypothesis's own.  ``deep`` runs the property
tests that do not pin ``max_examples`` ten times as long, with no
deadline; select it with ``pytest --hypothesis-profile=deep``.
"""

from hypothesis import settings

settings.register_profile("deep", max_examples=1_000, deadline=None)
