"""One verification harness for every engine's digest contract.

Each engine registers one :class:`~repro.verify.gates.Gate` in
:data:`~repro.verify.gates.GATES`; ``python -m repro.verify`` applies
every check the gate supports (rerun, perturbed evaluation order, worker
count, fault plan, independent oracle, crash-resume) and prints the
engine × check matrix.  DESIGN §14 lists the matrix and justifies each
empty cell.
"""
