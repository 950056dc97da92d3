"""The construction table as plain data, which ``catalog`` builds and ``cli`` reads."""

# The construction table: what latorb states about its four lattices, six
# component maps and six isometries, each value once.  A component row gives
# its root lattice (family, rank); a permutation of the simple roots, perm[i]
# = j sending alpha_i to alpha_j (None: the identity); and a word of
# reflections that right-multiply it in order, each in a simple root by index
# or in the highest root ("top").  A lattice row gives its blocks ("parts", also
# the type its root system must have), glue words (None: the ternary Golay
# code's basis) and description; its glue index and root count follow from
# the parts.  An isometry row gives its lattice; the query (dimension, rank
# bound) for its unresolved weight-one summand, if any, whose dual Coxeter
# divisor d = (total - 24) / 24 follows from the weight-one total; its
# resolved weight-one type, for row matching; its "blocks", one (target
# block, component names) pair per source block, whose map is the product of
# the named ``catalog.build_component_auto`` maps (no name: the identity);
# and each report field as (value, source), where "stated" marks an external
# assertion the build verifies and "computed" a value derived here and
# frozen after verification.  Flagged candidates are numerological ones the
# stored classification does not list: reported with a flag, never dropped.
CONSTRUCTIONS = {
    "components": {
        "cycle_A2": (("A", 2), None, (0, 1)),
        "rotation_D4": (("D", 4), (2, 1, 3, 0), (2, 1, 0, "top")),
        "triality_D4": (("D", 4), (2, 1, 3, 0), ()),
        "coord_cycle_D4": (("D", 4), None, (0, 1)),
        "coord_cycle_A5": (("A", 5), None, (1, 0, 4, 3)),
        "reflection_product_E6": (("E", 6), None, ("top", 5, 4, 3, 1, 0)),
    },
    "lattices": {
        "A2_12": {
            "parts": (("A", 2),) * 12, "words": None,
            "description": "rank-24 even unimodular lattice glued from twelve "
                           "hexagonal planes by the ternary Golay code",
        },
        "D4_6": {
            "parts": (("D", 4),) * 6,
            "words": ("111111", "222222", "002332", "023320", "033202",
                      "032023", "020233"),
            "description": "rank-24 even unimodular lattice glued from six "
                           "checkerboard blocks of rank 4",
        },
        "A5_4_D4": {
            "parts": (("A", 5),) * 4 + (("D", 4),),
            "words": ("33001", "30302", "30033", "20240", "22400", "24020"),
            "description": "rank-24 even unimodular lattice glued from four "
                           "rank-5 blocks and one rank-4 block",
        },
        "E6_4": {
            "parts": (("E", 6),) * 4, "words": ("1012", "1120", "1201"),
            "description": "rank-24 even unimodular lattice glued from four "
                           "rank-6 blocks with ternary dual classes",
        },
    },
    "isometries": {
        "sigma1": {
            "lattice": "A2_12", "query": (24, 6), "resolved": "A2,3^6",
            "blocks": ((0, ("cycle_A2",)), (2, ()), (3, ()), (1, ()), (6, ()), (5, ("cycle_A2",)),
                       (11, ()), (9, ()), (8, ("cycle_A2",)), (10, ()), (7, ()), (4, ())),
            "expect": {
                "eigen": ([6, 9, 9], "stated"), "rho": ("1", "stated"),
                "fixed": (30, "stated"), "twisted_each": (9, "stated"),
                "total": (48, "stated"), "N_over_R": (81, "computed"),
                "R_equals_M": (True, "stated"), "schellekens": ([6], "stated"),
                "candidate_types": (["A2^3", "A3 A1^3", "B2 A2 A1^2"], "computed"),
                "flagged_candidates": (["A3 A1^3"], "computed"),
            },
        },
        "sigma2": {
            "lattice": "D4_6", "query": None, "resolved": "A2,3^6",
            "blocks": tuple((i, ("rotation_D4",)) for i in range(6)),
            "expect": {
                "eigen": ([0, 12, 12], "stated"), "rho": ("4/3", "stated"),
                "fixed": (48, "stated"), "twisted_each": (0, "stated"),
                "total": (48, "stated"), "N_over_R": (531441, "computed"),
                "R_equals_M": (True, "computed"), "schellekens": ([6], "stated"),
                "candidate_types": ([], "computed"),
                "flagged_candidates": ([], "computed"),
            },
        },
        "sigma3": {
            "lattice": "D4_6", "query": (78, None), "resolved": "E6,3 G2,1^3",
            "blocks": tuple((i, ("triality_D4" if i > 2 else "rotation_D4",)) for i in range(6)),
            "expect": {
                "eigen": ([6, 9, 9], "stated"), "rho": ("1", "stated"),
                "fixed": (66, "computed"), "twisted_each": (27, "computed"),
                "total": (120, "stated"), "N_over_R": (729, "computed"),
                "R_equals_M": (True, "computed"), "schellekens": ([32], "stated"),
                "candidate_types": (["A7 A3", "C3 A3 G2^3", "C3^3 A3", "E6"], "computed"),
                "flagged_candidates": ([], "computed"),
            },
        },
        "sigma4": {
            "lattice": "D4_6", "query": (28, None), "resolved": "A5,3 D4,3 A1,1^3",
            "blocks": ((0, ("coord_cycle_D4",)), (1, ("rotation_D4",)), (2, ("rotation_D4",) * 2),
                       (4, ("rotation_D4",) * 2), (5, ("rotation_D4",)), (3, ())),
            "expect": {
                "eigen": ([6, 9, 9], "stated"), "rho": ("1", "stated"),
                "fixed": (54, "computed"), "twisted_each": (9, "computed"),
                "total": (72, "stated"), "N_over_R": (81, "computed"),
                "R_equals_M": (True, "computed"), "schellekens": ([17], "stated"),
                "candidate_types": (["D4", "G2^2"], "computed"),
                "flagged_candidates": ([], "computed"),
            },
        },
        "sigma5": {
            "lattice": "A5_4_D4", "query": (35, None), "resolved": "A5,3 D4,3 A1,1^3",
            "blocks": ((0, ("coord_cycle_A5",)), (2, ()), (3, ()), (1, ()),
                       (4, ("rotation_D4",))),
            "expect": {
                "eigen": ([6, 9, 9], "stated"), "rho": ("1", "stated"),
                "fixed": (54, "computed"), "twisted_each": (9, "computed"),
                "total": (72, "stated"), "N_over_R": (81, "computed"),
                "R_equals_M": (True, "computed"), "schellekens": ([17], "stated"),
                "candidate_types": (["A3 G2 A1^2", "A5", "C3 G2", "G2 A1^7"], "computed"),
                "flagged_candidates": ([], "computed"),
            },
        },
        "sigma6": {
            "lattice": "E6_4", "query": (42, None), "resolved": "E6,3 G2,1^3",
            "blocks": ((0, ("reflection_product_E6",)), (2, ()), (3, ()), (1, ())),
            "expect": {
                "eigen": ([6, 9, 9], "stated"), "rho": ("1", "stated"),
                "fixed": (102, "computed"), "twisted_each": (9, "computed"),
                "total": (120, "stated"), "N_over_R": (81, "computed"),
                "R_equals_M": (True, "computed"), "schellekens": ([32], "stated"),
                "candidate_types": (["C3^2", "G2^3"], "computed"),
                "flagged_candidates": ([], "computed"),
            },
        },
    },
}
LATTICE_KEYS = tuple(CONSTRUCTIONS["lattices"])
SIGMA_KEYS = tuple(CONSTRUCTIONS["isometries"])
