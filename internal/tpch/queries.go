package tpch

// Query is one workload entry: a TPC-H query number and its SQL restated in
// the select-from-where-group by-having fragment of the paper's model.
// Restatements preserve each query's table access pattern, join graph, and
// operator mix; constructs outside the fragment (subqueries, CASE
// arithmetic, outer joins, DISTINCT counts) are simplified as documented in
// docs/BENCHMARKS.md, "Paper reproduction (tpchbench)". Dates are day
// offsets from 1992-01-01.
type Query struct {
	Num  int
	Name string
	SQL  string
}

// Queries returns the 22-query workload.
func Queries() []Query {
	return []Query{
		{1, "pricing summary report", `
			select l_returnflag, l_linestatus,
			       sum(l_quantity), sum(l_extendedprice), sum(l_revenue),
			       avg(l_quantity), avg(l_extendedprice), avg(l_discount), count(*)
			from lineitem
			where l_shipdate <= 2465
			group by l_returnflag, l_linestatus
			order by l_returnflag, l_linestatus`},
		{2, "minimum cost supplier", `
			select s_acctbal, s_name, n_name, p_partkey, p_mfgr, s_address, s_phone
			from part
			join partsupp on p_partkey = ps_partkey
			join supplier on s_suppkey = ps_suppkey
			join nation on s_nationkey = n_nationkey
			join region on n_regionkey = r_regionkey
			where p_size = 15 and p_type like '%BRASS' and r_name = 'EUROPE'
			order by s_acctbal desc, n_name, s_name, p_partkey
			limit 100`},
		{3, "shipping priority", `
			select l_orderkey, sum(l_revenue) as revenue, o_orderdate, o_shippriority
			from customer
			join orders on c_custkey = o_custkey
			join lineitem on l_orderkey = o_orderkey
			where c_mktsegment = 'BUILDING' and o_orderdate < 1170 and l_shipdate > 1170
			group by l_orderkey, o_orderdate, o_shippriority
			order by revenue desc, o_orderdate
			limit 10`},
		{4, "order priority checking", `
			select o_orderpriority, count(*) as order_count
			from orders
			join lineitem on l_orderkey = o_orderkey
			where o_orderdate >= 1095 and o_orderdate < 1185
			  and l_commitdate < l_receiptdate
			group by o_orderpriority
			order by o_orderpriority`},
		{5, "local supplier volume", `
			select n_name, sum(l_revenue) as revenue
			from customer
			join orders on c_custkey = o_custkey
			join lineitem on l_orderkey = o_orderkey
			join supplier on l_suppkey = s_suppkey
			join nation on s_nationkey = n_nationkey
			join region on n_regionkey = r_regionkey
			where c_nationkey = s_nationkey and r_name = 'ASIA'
			  and o_orderdate >= 730 and o_orderdate < 1095
			group by n_name
			order by revenue desc`},
		{6, "forecasting revenue change", `
			select sum(l_discrev)
			from lineitem
			where l_shipdate >= 730 and l_shipdate < 1095
			  and l_discount between 0.05 and 0.07 and l_quantity < 24`},
		{7, "volume shipping", `
			select n_name, sum(l_revenue) as revenue
			from supplier
			join lineitem on s_suppkey = l_suppkey
			join orders on o_orderkey = l_orderkey
			join customer on c_custkey = o_custkey
			join nation on s_nationkey = n_nationkey
			where l_shipdate >= 1095 and l_shipdate <= 1825
			group by n_name
			order by n_name`},
		{8, "national market share", `
			select n_name, sum(l_revenue) as revenue
			from part
			join lineitem on p_partkey = l_partkey
			join supplier on s_suppkey = l_suppkey
			join orders on o_orderkey = l_orderkey
			join customer on c_custkey = o_custkey
			join nation on c_nationkey = n_nationkey
			join region on n_regionkey = r_regionkey
			where r_name = 'AMERICA' and p_type = 'ECONOMY ANODIZED STEEL'
			  and o_orderdate >= 1461 and o_orderdate <= 2190
			group by n_name
			order by n_name`},
		{9, "product type profit measure", `
			select n_name, sum(l_revenue) as profit
			from part
			join lineitem on p_partkey = l_partkey
			join supplier on s_suppkey = l_suppkey
			join partsupp on ps_partkey = l_partkey and ps_suppkey = l_suppkey
			join orders on o_orderkey = l_orderkey
			join nation on s_nationkey = n_nationkey
			where p_name like '%green%'
			group by n_name
			order by n_name`},
		{10, "returned item reporting", `
			select c_custkey, c_name, sum(l_revenue) as revenue, c_acctbal, n_name
			from customer
			join orders on c_custkey = o_custkey
			join lineitem on l_orderkey = o_orderkey
			join nation on c_nationkey = n_nationkey
			where o_orderdate >= 820 and o_orderdate < 910 and l_returnflag = 'R'
			group by c_custkey, c_name, c_acctbal, n_name
			order by revenue desc
			limit 20`},
		{11, "important stock identification", `
			select ps_partkey, sum(ps_value) as value
			from partsupp
			join supplier on ps_suppkey = s_suppkey
			join nation on s_nationkey = n_nationkey
			where n_name = 'GERMANY'
			group by ps_partkey
			having sum(ps_value) > 100000
			order by value desc
			limit 200`},
		{12, "shipping modes and order priority", `
			select l_shipmode, count(*) as line_count
			from orders
			join lineitem on o_orderkey = l_orderkey
			where l_shipmode in ('MAIL', 'SHIP')
			  and l_commitdate < l_receiptdate and l_shipdate < l_commitdate
			  and l_receiptdate >= 730 and l_receiptdate < 1095
			group by l_shipmode
			order by l_shipmode`},
		{13, "customer distribution", `
			select o_custkey, count(*) as c_count
			from orders
			where not o_comment like '%special%requests%'
			group by o_custkey
			order by c_count desc, o_custkey
			limit 100`},
		{14, "promotion effect", `
			select p_type, sum(l_revenue) as revenue
			from lineitem
			join part on l_partkey = p_partkey
			where l_shipdate >= 850 and l_shipdate < 880
			group by p_type
			order by revenue desc`},
		{15, "top supplier", `
			select s_suppkey, s_name, s_address, s_phone, sum(l_revenue) as total_revenue
			from supplier
			join lineitem on s_suppkey = l_suppkey
			where l_shipdate >= 1000 and l_shipdate < 1090
			group by s_suppkey, s_name, s_address, s_phone
			order by total_revenue desc
			limit 10`},
		{16, "parts/supplier relationship", `
			select p_brand, p_type, p_size, count(*) as supplier_cnt
			from partsupp
			join part on p_partkey = ps_partkey
			where not p_brand = 'Brand#45' and not p_type like 'MEDIUM POLISHED%'
			  and p_size in (49, 14, 23, 45, 19, 3, 36, 9)
			group by p_brand, p_type, p_size
			order by supplier_cnt desc, p_brand, p_type, p_size
			limit 100`},
		{17, "small-quantity-order revenue", `
			select sum(l_extendedprice) as total
			from lineitem
			join part on p_partkey = l_partkey
			where p_brand = 'Brand#23' and p_container = 'MED BOX' and l_quantity < 5`},
		{18, "large volume customer", `
			select c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice, sum(l_quantity) as qty
			from customer
			join orders on c_custkey = o_custkey
			join lineitem on o_orderkey = l_orderkey
			group by c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice
			having sum(l_quantity) > 300
			order by o_totalprice desc, o_orderdate
			limit 100`},
		{19, "discounted revenue", `
			select sum(l_revenue) as revenue
			from lineitem
			join part on p_partkey = l_partkey
			where (p_brand = 'Brand#12' and l_quantity <= 11)
			   or (p_brand = 'Brand#23' and l_quantity <= 20)
			   or (p_brand = 'Brand#34' and l_quantity <= 30)`},
		{20, "potential part promotion", `
			select s_name, s_address
			from supplier
			join nation on s_nationkey = n_nationkey
			join partsupp on ps_suppkey = s_suppkey
			where n_name = 'CANADA' and ps_availqty > 5000
			order by s_name
			limit 100`},
		{21, "suppliers who kept orders waiting", `
			select s_name, count(*) as numwait
			from supplier
			join lineitem on s_suppkey = l_suppkey
			join orders on o_orderkey = l_orderkey
			join nation on s_nationkey = n_nationkey
			where o_orderstatus = 'F' and l_receiptdate > l_commitdate
			  and n_name = 'SAUDI ARABIA'
			group by s_name
			order by numwait desc, s_name
			limit 100`},
		{22, "global sales opportunity", `
			select c_nationkey, count(*) as numcust, sum(c_acctbal) as totacctbal
			from customer
			where c_acctbal > 7000
			group by c_nationkey
			order by c_nationkey`},
	}
}
