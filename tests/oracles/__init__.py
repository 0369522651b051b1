"""Reference implementations kept only as test oracles.

Each module here is the plain, unoptimized twin of a production
component in ``src/``: the set-backed follower graph, the list-backed
action log, the naive study, organic and collusion loops, and the
unshared fleet run (every replica builds its own prefix chain). Equivalence
suites drive both through the same inputs and compare every answer;
:func:`tests.oracles.study.install_oracles` swaps the twins into a whole
``Study`` with ``monkeypatch``.
"""
