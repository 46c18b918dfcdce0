// Package tpch provides the workload of the paper's evaluation (Section 7):
// the 8-table TPC-H schema with its tables distributed between two data
// authorities, a deterministic synthetic data generator with TPC-H value
// domains and relative cardinalities, the 22 benchmark queries restated in
// the select-from-where-group by-having fragment the paper's model covers,
// and the three authorization scenarios UA / UAPenc / UAPmix.
//
// Substitutions relative to the official benchmark (see docs/BENCHMARKS.md,
// "Paper reproduction (tpchbench)"): dates
// are day offsets from 1992-01-01; select-list arithmetic (e.g.
// l_extendedprice*(1-l_discount)) is precomputed into generated columns
// (l_revenue, l_discrev, ps_value) because the paper's query fragment has
// no expressions; queries with subqueries are restated as joins/group-bys
// preserving their table access patterns and operator mix.
package tpch

import (
	"mpq/internal/algebra"
)

// The two data authorities of the experiment. AuthorityCO holds the
// customer-order side; AuthorityPS the part-supplier side.
const (
	AuthorityCO = "A1"
	AuthorityPS = "A2"
)

// MaxDate is the largest date offset (1998-12-31 relative to 1992-01-01).
const MaxDate = 2555

// Catalog builds the TPC-H catalog at the given scale factor. Cardinalities
// follow the official ratios (SF 1 = 6M lineitem rows); column widths and
// distinct counts drive the selectivity and cost estimates.
func Catalog(sf float64) *algebra.Catalog {
	cat := algebra.NewCatalog()
	add := func(name, authority string, rows float64, cols []algebra.Column) {
		cat.Add(&algebra.Relation{Name: name, Authority: authority, Rows: rows, Columns: cols})
	}

	add("region", AuthorityCO, 5, []algebra.Column{
		{Name: "r_regionkey", Type: algebra.TInt, Width: 4, Distinct: 5},
		{Name: "r_name", Type: algebra.TString, Width: 12, Distinct: 5},
		{Name: "r_comment", Type: algebra.TString, Width: 60, Distinct: 5},
	})
	add("nation", AuthorityPS, 25, []algebra.Column{
		{Name: "n_nationkey", Type: algebra.TInt, Width: 4, Distinct: 25},
		{Name: "n_name", Type: algebra.TString, Width: 16, Distinct: 25},
		{Name: "n_regionkey", Type: algebra.TInt, Width: 4, Distinct: 5},
		{Name: "n_comment", Type: algebra.TString, Width: 80, Distinct: 25},
	})
	add("supplier", AuthorityPS, 10000*sf, []algebra.Column{
		{Name: "s_suppkey", Type: algebra.TInt, Width: 4, Distinct: 10000 * sf},
		{Name: "s_name", Type: algebra.TString, Width: 18, Distinct: 10000 * sf},
		{Name: "s_address", Type: algebra.TString, Width: 25, Distinct: 10000 * sf},
		{Name: "s_nationkey", Type: algebra.TInt, Width: 4, Distinct: 25},
		{Name: "s_phone", Type: algebra.TString, Width: 15, Distinct: 10000 * sf},
		{Name: "s_acctbal", Type: algebra.TFloat, Width: 8, Distinct: 9000},
		{Name: "s_comment", Type: algebra.TString, Width: 60, Distinct: 10000 * sf},
	})
	add("customer", AuthorityCO, 150000*sf, []algebra.Column{
		{Name: "c_custkey", Type: algebra.TInt, Width: 4, Distinct: 150000 * sf},
		{Name: "c_name", Type: algebra.TString, Width: 18, Distinct: 150000 * sf},
		{Name: "c_address", Type: algebra.TString, Width: 25, Distinct: 150000 * sf},
		{Name: "c_nationkey", Type: algebra.TInt, Width: 4, Distinct: 25},
		{Name: "c_phone", Type: algebra.TString, Width: 15, Distinct: 150000 * sf},
		{Name: "c_acctbal", Type: algebra.TFloat, Width: 8, Distinct: 100000},
		{Name: "c_mktsegment", Type: algebra.TString, Width: 10, Distinct: 5},
		{Name: "c_comment", Type: algebra.TString, Width: 70, Distinct: 150000 * sf},
	})
	add("part", AuthorityPS, 200000*sf, []algebra.Column{
		{Name: "p_partkey", Type: algebra.TInt, Width: 4, Distinct: 200000 * sf},
		{Name: "p_name", Type: algebra.TString, Width: 35, Distinct: 200000 * sf},
		{Name: "p_mfgr", Type: algebra.TString, Width: 14, Distinct: 5},
		{Name: "p_brand", Type: algebra.TString, Width: 10, Distinct: 25},
		{Name: "p_type", Type: algebra.TString, Width: 25, Distinct: 150},
		{Name: "p_size", Type: algebra.TInt, Width: 4, Distinct: 50},
		{Name: "p_container", Type: algebra.TString, Width: 10, Distinct: 40},
		{Name: "p_retailprice", Type: algebra.TFloat, Width: 8, Distinct: 20000},
		{Name: "p_comment", Type: algebra.TString, Width: 15, Distinct: 200000 * sf},
	})
	add("partsupp", AuthorityPS, 800000*sf, []algebra.Column{
		{Name: "ps_partkey", Type: algebra.TInt, Width: 4, Distinct: 200000 * sf},
		{Name: "ps_suppkey", Type: algebra.TInt, Width: 4, Distinct: 10000 * sf},
		{Name: "ps_availqty", Type: algebra.TInt, Width: 4, Distinct: 10000},
		{Name: "ps_supplycost", Type: algebra.TFloat, Width: 8, Distinct: 100000},
		{Name: "ps_value", Type: algebra.TFloat, Width: 8, Distinct: 500000},
		{Name: "ps_comment", Type: algebra.TString, Width: 80, Distinct: 800000 * sf},
	})
	add("orders", AuthorityCO, 1500000*sf, []algebra.Column{
		{Name: "o_orderkey", Type: algebra.TInt, Width: 4, Distinct: 1500000 * sf},
		{Name: "o_custkey", Type: algebra.TInt, Width: 4, Distinct: 99996 * sf},
		{Name: "o_orderstatus", Type: algebra.TString, Width: 1, Distinct: 3},
		{Name: "o_totalprice", Type: algebra.TFloat, Width: 8, Distinct: 1000000},
		{Name: "o_orderdate", Type: algebra.TDate, Width: 4, Distinct: 2406},
		{Name: "o_orderpriority", Type: algebra.TString, Width: 15, Distinct: 5},
		{Name: "o_clerk", Type: algebra.TString, Width: 15, Distinct: 1000 * sf},
		{Name: "o_shippriority", Type: algebra.TInt, Width: 4, Distinct: 1},
		{Name: "o_comment", Type: algebra.TString, Width: 50, Distinct: 1500000 * sf},
	})
	add("lineitem", AuthorityCO, 6000000*sf, []algebra.Column{
		{Name: "l_orderkey", Type: algebra.TInt, Width: 4, Distinct: 1500000 * sf},
		{Name: "l_partkey", Type: algebra.TInt, Width: 4, Distinct: 200000 * sf},
		{Name: "l_suppkey", Type: algebra.TInt, Width: 4, Distinct: 10000 * sf},
		{Name: "l_linenumber", Type: algebra.TInt, Width: 4, Distinct: 7},
		{Name: "l_quantity", Type: algebra.TInt, Width: 4, Distinct: 50},
		{Name: "l_extendedprice", Type: algebra.TFloat, Width: 8, Distinct: 1000000},
		{Name: "l_discount", Type: algebra.TFloat, Width: 8, Distinct: 11},
		{Name: "l_tax", Type: algebra.TFloat, Width: 8, Distinct: 9},
		{Name: "l_revenue", Type: algebra.TFloat, Width: 8, Distinct: 1000000},
		{Name: "l_discrev", Type: algebra.TFloat, Width: 8, Distinct: 1000000},
		{Name: "l_returnflag", Type: algebra.TString, Width: 1, Distinct: 3},
		{Name: "l_linestatus", Type: algebra.TString, Width: 1, Distinct: 2},
		{Name: "l_shipdate", Type: algebra.TDate, Width: 4, Distinct: 2526},
		{Name: "l_commitdate", Type: algebra.TDate, Width: 4, Distinct: 2466},
		{Name: "l_receiptdate", Type: algebra.TDate, Width: 4, Distinct: 2554},
		{Name: "l_shipinstruct", Type: algebra.TString, Width: 25, Distinct: 4},
		{Name: "l_shipmode", Type: algebra.TString, Width: 10, Distinct: 7},
		{Name: "l_comment", Type: algebra.TString, Width: 27, Distinct: 6000000 * sf},
	})
	return cat
}

// TableNames lists the TPC-H relations in dependency order.
func TableNames() []string {
	return []string{"region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem"}
}

// Value domains shared by the generator and the queries.
var (
	regionNames = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	nationNames = []string{
		"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE",
		"GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA",
		"MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA",
		"VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES",
	}
	segments   = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	shipmodes  = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	instructs  = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
	containers = []string{"SM CASE", "SM BOX", "SM PACK", "SM PKG", "MED BAG", "MED BOX",
		"MED PKG", "MED PACK", "LG CASE", "LG BOX", "LG PACK", "LG PKG"}
	typeSyllables1 = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	typeSyllables2 = []string{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"}
	typeSyllables3 = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}
	nameWords      = []string{"almond", "antique", "aquamarine", "azure", "beige", "bisque",
		"black", "blanched", "blue", "blush", "brown", "burlywood", "burnished",
		"chartreuse", "chiffon", "chocolate", "coral", "cornflower", "cream", "cyan",
		"dark", "deep", "dim", "dodger", "drab", "firebrick", "floral", "forest",
		"frosted", "gainsboro", "ghost", "goldenrod", "green", "grey", "honeydew",
		"hot", "hotpink", "indian", "ivory", "khaki", "lace", "lavender", "lawn",
		"lemon", "light", "lime", "linen", "magenta", "maroon", "medium"}
	commentWords = []string{"carefully", "quickly", "furiously", "slyly", "blithely",
		"express", "regular", "special", "requests", "deposits", "accounts", "packages",
		"instructions", "theodolites", "pinto", "beans", "foxes", "ideas", "dependencies",
		"excuses", "platelets", "asymptotes", "courts", "dolphins", "multipliers"}
)
