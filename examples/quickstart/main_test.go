package main

// Example pins the example's stdout: every value it prints is
// deterministic.
func Example() {
	main()
	// Output:
	// PDE finished: 631 round budget (226 active), 576 messages, 15 rounding instances
	//
	// node 0:  src=0 est=0.0 (exact 0, via -1)  src=9 est=30.0 (exact 30, via 1)
	// node 1:  src=0 est=1.0 (exact 1, via 0)  src=9 est=29.0 (exact 29, via 2)
	// node 2:  src=0 est=3.0 (exact 3, via 1)  src=9 est=27.0 (exact 27, via 7)
	// node 3:  src=0 est=6.0 (exact 6, via 2)  src=9 est=30.0 (exact 30, via 2)
	// node 4:  src=0 est=10.0 (exact 10, via 3)  src=9 est=34.0 (exact 34, via 3)
	// node 5:  src=9 est=10.0 (exact 10, via 6)  src=0 est=26.0 (exact 26, via 6)
	// node 6:  src=9 est=9.0 (exact 9, via 7)  src=0 est=25.0 (exact 25, via 7)
	// node 7:  src=9 est=7.0 (exact 7, via 8)  src=0 est=23.0 (exact 23, via 2)
	// node 8:  src=9 est=4.0 (exact 4, via 9)  src=0 est=26.0 (exact 26, via 7)
	// node 9:  src=9 est=0.0 (exact 0, via -1)  src=0 est=30.0 (exact 30, via 8)
	//
	// route 4 -> 9: path [4 3 2 7 8 9], weight 34 (exact distance 34)
	//
	// oracle (20 entries, 508 bytes):
	//   4 -> 9: est=34.0 via 3
	//   6 -> 0: est=25.0 via 7
	//   1 -> 9: est=29.0 via 2
}
