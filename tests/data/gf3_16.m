# the first 16 points of PG(3,3) in lex order: 16 vectors in GF(3)^4,
# at the mask table's ceiling, so validate walks all 2^16 subsets
matroid linear
field 3
dim 4
vec 0 0 0 0 1
vec 1 0 0 1 0
vec 2 0 0 1 1
vec 3 0 0 1 2
vec 4 0 1 0 0
vec 5 0 1 0 1
vec 6 0 1 0 2
vec 7 0 1 1 0
vec 8 0 1 1 1
vec 9 0 1 1 2
vec 10 0 1 2 0
vec 11 0 1 2 1
vec 12 0 1 2 2
vec 13 1 0 0 0
vec 14 1 0 0 1
vec 15 1 0 0 2
