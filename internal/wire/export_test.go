package wire

// The frame header and Error payload codecs and the Conn constructor are
// unexported; hostile_test.go, an external test package, reaches them here.
var (
	PutHeader         = putHeader
	ParseHeader       = parseHeader
	ParseErrorPayload = parseErrorPayload
	NewConn           = newConn
)
