package main

// Example runs the roaming session and holds its transcript, which is the same on every
// run because the whole world runs in virtual time.
func Example() {
	main()
	// Output:
	// on wifi     10.0.0.1:4242: screen="user@remote:~$ typed-on-wifi"
	//
	// *** roamed to 101.0.0.1:9999 (no reconnection, same session) ***
	//
	// on cellular 101.0.0.1:9999: screen="user@remote:~$ typed-on-wifi typed-on-lte"
	//
	// server observed 1 address change(s); reply target is now 101.0.0.1:9999
	// client and server screens are byte-identical — session survived the roam
}
