"""Finite-category descent machinery and exact triangle-moduli geometry.

Subpackages by concern:

- ``fincat``        finite categories, functors, (groupoid) fibrations
- ``grothendieck``  pseudo-functors and the total-category construction
- ``descent``       finite sites, descent data, stack verdicts
- ``trigeo``        the edge-length cone M, its S3 action, the quotient N
- ``families``      piecewise-linear triangle families over graph bases
- ``groups``        finite groups by multiplication table
- ``torsor``        discrete principal bundles over simplicial complexes
- ``deform``        deformation germs of a fixed triangle
- ``corpus``        seeded generators used by the test and acceptance suites
- ``cli``           batch front door over files
"""

__version__ = "0.1.0"
