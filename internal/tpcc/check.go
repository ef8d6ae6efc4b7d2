package tpcc

import (
	"errors"
	"fmt"
	"math"

	"microspec/internal/engine"
	"microspec/internal/types"
)

// ytdTolerance bounds |w_ytd − Σ d_ytd| in consistency condition 1.
const ytdTolerance = 1e-6

// Check asserts the TPC-C consistency conditions (clause 3.3.2) on
// warehouses 1..warehouses and every district of theirs, through
// db.Query:
//
//  1. w_ytd equals the sum of its districts' d_ytd, within 1e-6;
//  2. d_next_o_id − 1 equals the district's max(o_id), and its
//     max(no_o_id) when it has new orders;
//  3. the district's new_order ids are contiguous: max − min + 1 rows;
//  4. the district's sum(o_ol_cnt) equals its order_line row count;
//
// and that no order is without order lines. It returns every violation
// found, joined, or nil.
func Check(db *engine.DB, warehouses int) error {
	var errs []error
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf("tpcc: "+format, args...)) }
	rows := func(text string) [][]types.Datum {
		r, err := db.Query(text)
		if err != nil {
			fail("check %q: %v", text, err)
			return nil
		}
		return r.Rows
	}
	type district struct{ w, d int64 }
	byDistrict := func(text string) map[district][]types.Datum {
		m := map[district][]types.Datum{}
		for _, r := range rows(text) {
			m[district{r[0].Int64(), r[1].Int64()}] = r
		}
		return m
	}
	byWarehouse := func(text string) map[int64]float64 {
		m := map[int64]float64{}
		for _, r := range rows(text) {
			m[r[0].Int64()] = r[1].Float64()
		}
		return m
	}

	wYtd := byWarehouse("select w_id, w_ytd from warehouse")
	dYtd := byWarehouse("select d_w_id, sum(d_ytd) from district group by d_w_id")
	next := rows("select d_w_id, d_id, d_next_o_id from district")
	maxO := byDistrict("select o_w_id, o_d_id, max(o_id), sum(o_ol_cnt) from orders group by o_w_id, o_d_id")
	newO := byDistrict("select no_w_id, no_d_id, max(no_o_id), min(no_o_id), count(*) from new_order group by no_w_id, no_d_id")
	lines := byDistrict("select ol_w_id, ol_d_id, count(*) from order_line group by ol_w_id, ol_d_id")
	orphans := rows(`select count(*) from orders where not exists (select * from order_line
		where ol_w_id = o_w_id and ol_d_id = o_d_id and ol_o_id = o_id)`)
	if len(errs) > 0 {
		return errors.Join(errs...)
	}

	for w := int64(1); w <= int64(warehouses); w++ {
		ytd, ok := wYtd[w]
		if !ok {
			fail("warehouse %d is missing", w)
			continue
		}
		if sum := dYtd[w]; math.Abs(ytd-sum) > ytdTolerance {
			fail("condition 1: warehouse %d w_ytd %.2f, sum(d_ytd) %.2f", w, ytd, sum)
		}
	}
	for _, d := range next {
		id := district{d[0].Int64(), d[1].Int64()}
		if id.w < 1 || id.w > int64(warehouses) {
			continue
		}
		want := d[2].Int64() - 1
		o := maxO[id]
		if o == nil || o[2].Int64() != want {
			fail("condition 2: district %d/%d d_next_o_id-1=%d, max(o_id) row %v", id.w, id.d, want, o)
			continue
		}
		if n := newO[id]; n != nil {
			if n[2].Int64() != want {
				fail("condition 2: district %d/%d d_next_o_id-1=%d, max(no_o_id)=%d", id.w, id.d, want, n[2].Int64())
			}
			if n[2].Int64()-n[3].Int64()+1 != n[4].Int64() {
				fail("condition 3: district %d/%d new_order ids %d..%d in %d rows",
					id.w, id.d, n[3].Int64(), n[2].Int64(), n[4].Int64())
			}
		}
		var ol int64
		if l := lines[id]; l != nil {
			ol = l[2].Int64()
		}
		if o[3].Int64() != ol {
			fail("condition 4: district %d/%d sum(o_ol_cnt)=%d, order_line rows=%d", id.w, id.d, o[3].Int64(), ol)
		}
	}
	if n := orphans[0][0].Int64(); n != 0 {
		fail("%d orders without order lines", n)
	}
	return errors.Join(errs...)
}
