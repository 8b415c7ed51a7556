"""Quadratic n-particle systems: continuous and discrete variational solvers.

The package solves the equations of motion for particles coupled through a
quadratic Lagrangian, both in continuous time (quadratic eigenvalue problems)
and on uniform grids under windowed scale-derivative operators
(transcendental eigenvalue problems).  On top of the solvers it classifies
periodicity, constructs choreographic solutions, and measures how the discrete spectra
(in the Hausdorff metric) and solutions (`window_errors`) converge as the grid delay
shrinks.  `numkernel` states the batch contract of the batched stages.

Importing the package loads none of its modules: a caller imports the module that
defines what it uses (`from choreoqep import pencil`), so a command-line run loads what
its command computes with.
"""
