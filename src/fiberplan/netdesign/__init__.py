"""Network design: graphs, node roles, tree solvers, and tier dispatch."""
