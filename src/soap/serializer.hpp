// Value <-> XML encoding, SOAP 1.1 section-5 style: every accessor element
// carries an xsi:type attribute; arrays use SOAP-ENC:Array with item
// accessors; structs nest named accessors.
//
//   <city xsi:type="xsd:string">Beijing</city>
//   <ids SOAP-ENC:arrayType="xsd:anyType[2]" xsi:type="SOAP-ENC:Array">
//     <item xsi:type="xsd:int">1</item><item xsi:type="xsd:int">2</item>
//   </ids>
//
// Deserialization is tolerant: when xsi:type is missing it infers struct /
// array / string from shape, which keeps us interoperable with the loosely
// typed messages 2006-era toolkits emitted.
#pragma once

#include "soap/value.hpp"
#include "xml/parser.hpp"
#include "xml/writer.hpp"

namespace spi::soap {

/// Serializes `value` as element `name` into `writer`. Strings go through
/// xml::Writer::shared_text, so a large clean one is spliced, not copied.
void write_value(xml::Writer& writer, std::string_view name,
                 const Value& value);

/// Adds value.payload_bytes() to a Writer reservation: strings at the
/// splice floor to `spliceable`, every other byte to `copied`.
void add_payload_bytes(const Value& value, xml::Reservation& bytes);

/// Serializes to a standalone XML fragment string.
std::string value_to_xml(std::string_view name, const Value& value);

/// Parses one accessor element back into a Value. `source` is the text
/// the element's Document was parsed from (xml::Document::source, null for
/// a Document built without text). A string whose bytes lie in *source
/// shares them and keeps *source alive (Value::shared_string); any other
/// string, entity-expanded or joined from several runs, is copied.
Result<Value> read_value(const xml::Element& element,
                         const std::shared_ptr<const std::string>& source);

/// Parses an XML fragment produced by value_to_xml.
Result<Value> value_from_xml(std::string_view xml_fragment);

/// How read_value interprets an accessor, from its xsi:type attribute
/// (prefix stripped). kInferred covers a missing or unknown type: an
/// accessor with child elements is an array (all children named "item")
/// or a struct, and one without is a string. Every decoder of accessors
/// (the DOM reader, the streaming reader, the pack view's check) shares
/// these rules.
enum class DeclaredType {
  kInferred,
  kBoolean,
  kInt,
  kDouble,
  kString,
  kArray,
  kStruct,
};
DeclaredType declared_type(std::string_view xsi_type);

/// The scalar text rules (`text` already trimmed of ASCII whitespace).
Result<bool> parse_xsd_boolean(std::string_view text);
Result<std::int64_t> parse_xsd_int(std::string_view text);
Result<double> parse_xsd_double(std::string_view text);

}  // namespace spi::soap
