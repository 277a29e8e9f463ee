"""Goal-oriented automatic SPMD partitioner over named device meshes.

Build or load a tensor program, declare a mesh, pick a goal schedule, and
search for a partitioning plan whose simulated runtime, peak per-device
memory, and collective pattern beat the unsharded baseline.  See the
README for the workflow.  The package itself defines no names: import the
submodules (`ir`, `engine`, `costmodel`, `mcts`, `controller`, `models`,
`oracle`, `cli`).
"""
