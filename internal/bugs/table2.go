package bugs

// Known describes one of the 14 previously-unknown vulnerabilities from the
// paper's Table II. Each is seeded into the corresponding Go protocol
// subject, gated on the configuration + input condition the paper
// attributes to it, so campaigns can check which rows were rediscovered.
type Known struct {
	No       int
	Protocol string
	Kind     Kind
	Function string
}

// Table2 lists the paper's Table II verbatim. The Protocol column uses the
// protocol name (not the implementation) as the paper does.
var Table2 = []Known{
	{1, "MQTT", HeapUseAfterFree, "Connection::newMessage"},
	{2, "MQTT", HeapUseAfterFree, "neu_node_manager_get_addrs_all"},
	{3, "MQTT", HeapUseAfterFree, "mqtt_packet_destroy"},
	{4, "MQTT", SEGV, "loop_accepted"},
	{5, "MQTT", MemoryLeak, "multiple functions"},
	{6, "CoAP", SEGV, "coap_clean_options"},
	{7, "CoAP", StackBufferOverflow, "CoapPDU::getOptionDelta"},
	{8, "CoAP", SEGV, "coap_handle_request_put_block"},
	{9, "AMQP", StackBufferOverflow, "pthread_create"},
	{10, "DNS", StackBufferOverflow, "get16bits"},
	{11, "DNS", HeapBufferOverflow, "dns_question_parse, dns_request_parse"},
	{12, "DNS", AllocationSizeTooBig, "dns_request_parse"},
	{13, "DNS", HeapBufferOverflow, "printf_common"},
	{14, "DNS", HeapBufferOverflow, "config_parse"},
}

// LookupKnown matches a crash against Table II and returns the row, if any.
func LookupKnown(c *Crash) (Known, bool) {
	for _, k := range Table2 {
		if k.Protocol == c.Protocol && k.Kind == c.Kind && k.Function == c.Function {
			return k, true
		}
	}
	return Known{}, false
}
