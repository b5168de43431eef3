package main

// paperTable1 is report.RunTable1(report.Default()) as the paper
// reproduction records it: every row's modeled seconds and both energy
// ratios, exact to the last bit. A change that moves any of them is a
// model change, not an optimisation, and fails table1-paper's check.
var paperTable1 = table1Values{
	Seconds: [6]float64{
		1.1995009277039943,   // FFBP, sequential on Intel i7
		3.61038165,           // FFBP, sequential on Epiphany
		0.251718128,          // FFBP, parallel on Epiphany
		0.002949350112354482, // autofocus, sequential on Intel i7
		0.003844545,          // autofocus, sequential on Epiphany
		0.000409709,          // autofocus, parallel on Epiphany
	},
	FFBPRatio: 41.69597637167376,
	AFRatio:   62.98815374595558,
}

// paperTable1Ops is the number of operations each Table I row charges
// its machine at paper scale (see chargedOps), in table1Rows order.
var paperTable1Ops = [6]float64{399550782, 399550782, 399552830, 3664896, 3664896, 3860864}
