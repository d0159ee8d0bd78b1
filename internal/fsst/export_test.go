package fsst

// ReferenceTableAndEncoding trains the reference (map-based) trainer on
// sample and encodes src with the reference bucket-scan encoder, for the
// external tests that draw their strings from the corpus generators.
func ReferenceTableAndEncoding(sample [][]byte, src []byte) (table, enc []byte) {
	r := refTrain(sample)
	return r.appendTable(nil), r.encode(nil, src)
}
