"""Helpers for the edge serving and on-device learning benchmark.

``run.py`` in the parent directory is the entry point; the modules here
hold the parts it is built from:

- :mod:`.stats`     -- percentiles with their sample counts, spreads;
- :mod:`.loadgen`   -- the seeded open-loop Poisson generator;
- :mod:`.host`      -- CPU, steal and peak-memory accounting from /proc;
- :mod:`.spans`     -- in-memory spans around public calls, self times;
- :mod:`.metrics`   -- metric-name validation and the result line;
- :mod:`.workloads` -- the three workloads.
"""
