"""chemvm: a vessel-tape chemical virtual machine and its toolchain.

The package covers the full loop from a text program to an auditable
execution trace: a small synthesis DSL (`chemlang`), a tape machine with
mass and energy ledgers (`cstm`), a declarative reaction-rule database with
a planner that searches forward from stock, breadth first, and sizes amounts
backward (`rules`), a compiler onto fluidic hardware graphs (`chempiler`), a
closed-loop error-correction layer (`dec`), and copy-number detectability
math with a Monte Carlo error model (`assembly`). `cli` exposes everything
as one deterministic command-line tool.
"""

__version__ = "0.1.0"
