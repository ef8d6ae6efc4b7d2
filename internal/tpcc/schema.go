// Package tpcc is the TPC-C kit: the nine-table schema, the
// BenchmarkSQL-style initial population, the five transaction types, and a
// terminal driver with the three transaction mixes the paper evaluates
// (default, query-only, and an equal mix of queries and modifications).
//
// Each transaction type is written once (txns.go), as a function over an
// engine.Txn and a pre-sampled parameter struct that returns an error to
// roll back. Executor.dispatch runs it stepwise — an interactive
// transaction from DB.Begin, committed by the runner, whose durability
// error is the transaction's result — or, after EnableTxnBees, fused in a
// compiled transaction bee (the TxnSpecs in txnbees.go) with a stepwise
// retry of the same parameters if the bee falls out of service.
package tpcc

// SchemaDDL returns the TPC-C CREATE TABLE and CREATE INDEX statements.
// The LOWCARD annotations mark the genuinely low-cardinality attributes
// (credit flags, carrier ids) for tuple-bee specialization.
func SchemaDDL() []string {
	return []string{
		`create table warehouse (
			w_id integer not null,
			w_name varchar(10) not null,
			w_street_1 varchar(20) not null,
			w_street_2 varchar(20) not null,
			w_city varchar(20) not null,
			w_state char(2) not null,
			w_zip char(9) not null,
			w_tax decimal(4,4) not null,
			w_ytd decimal(12,2) not null,
			primary key (w_id))`,
		`create table district (
			d_w_id integer not null,
			d_id integer not null,
			d_name varchar(10) not null,
			d_street_1 varchar(20) not null,
			d_city varchar(20) not null,
			d_state char(2) not null,
			d_zip char(9) not null,
			d_tax decimal(4,4) not null,
			d_ytd decimal(12,2) not null,
			d_next_o_id integer not null,
			primary key (d_w_id, d_id))`,
		`create table customer (
			c_w_id integer not null,
			c_d_id integer not null,
			c_id integer not null,
			c_first varchar(16) not null,
			c_middle char(2) not null,
			c_last varchar(16) not null,
			c_street_1 varchar(20) not null,
			c_city varchar(20) not null,
			c_state char(2) not null,
			c_zip char(9) not null,
			c_phone char(16) not null,
			c_since date not null,
			c_credit char(2) not null lowcard,
			c_credit_lim decimal(12,2) not null,
			c_discount decimal(4,4) not null,
			c_balance decimal(12,2) not null,
			c_ytd_payment decimal(12,2) not null,
			c_payment_cnt integer not null,
			c_delivery_cnt integer not null,
			c_data varchar(255) not null,
			primary key (c_w_id, c_d_id, c_id))`,
		`create index customer_by_name on customer (c_w_id, c_d_id, c_last, c_first)`,
		`create table history (
			h_c_id integer not null,
			h_c_d_id integer not null,
			h_c_w_id integer not null,
			h_d_id integer not null,
			h_w_id integer not null,
			h_date date not null,
			h_amount decimal(6,2) not null,
			h_data varchar(24) not null)`,
		`create table new_order (
			no_w_id integer not null,
			no_d_id integer not null,
			no_o_id integer not null,
			primary key (no_w_id, no_d_id, no_o_id))`,
		`create table orders (
			o_w_id integer not null,
			o_d_id integer not null,
			o_id integer not null,
			o_c_id integer not null,
			o_entry_d date not null,
			o_carrier_id integer not null lowcard,
			o_ol_cnt integer not null,
			o_all_local integer not null lowcard,
			primary key (o_w_id, o_d_id, o_id))`,
		`create index orders_by_customer on orders (o_w_id, o_d_id, o_c_id, o_id)`,
		`create table order_line (
			ol_w_id integer not null,
			ol_d_id integer not null,
			ol_o_id integer not null,
			ol_number integer not null,
			ol_i_id integer not null,
			ol_supply_w_id integer not null,
			ol_delivery_d date not null,
			ol_quantity integer not null,
			ol_amount decimal(6,2) not null,
			ol_dist_info char(24) not null,
			primary key (ol_w_id, ol_d_id, ol_o_id, ol_number))`,
		`create table item (
			i_id integer not null,
			i_im_id integer not null,
			i_name varchar(24) not null,
			i_price decimal(5,2) not null,
			i_data varchar(50) not null,
			primary key (i_id))`,
		`create table stock (
			s_w_id integer not null,
			s_i_id integer not null,
			s_quantity integer not null,
			s_ytd integer not null,
			s_order_cnt integer not null,
			s_remote_cnt integer not null,
			s_data varchar(50) not null,
			primary key (s_w_id, s_i_id))`,
	}
}
