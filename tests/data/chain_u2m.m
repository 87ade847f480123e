# a two-level chain whose top level is far above the mask table bound
matroid uniform
n 3
k 2
matroid uniform
n 2000000
k 3
