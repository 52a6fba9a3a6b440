#include "xml/writer.hpp"

#include <algorithm>

#include "common/buffer_pool.hpp"
#include "xml/text.hpp"

namespace spi::xml {

Writer& Writer::declaration() {
  if (!out_.empty()) {
    throw SpiError(ErrorCode::kInvalidArgument,
                   "XML declaration must be first");
  }
  out_ += "<?xml version=\"1.0\" encoding=\"UTF-8\"?>";
  if (pretty_) out_ += '\n';
  return *this;
}

Writer& Writer::start_element(std::string_view name) {
  if (!is_valid_name(name)) {
    throw SpiError(ErrorCode::kInvalidArgument,
                   "invalid XML element name '" + std::string(name) + "'");
  }
  close_start_tag();
  if (pretty_ && !open_elements_.empty()) {
    out_ += '\n';
    indent();
  } else if (pretty_ && !out_.empty() && out_.back() != '\n' &&
             open_elements_.empty() && out_.find('<') != std::string::npos) {
    out_ += '\n';
  }
  out_ += '<';
  open_elements_.push_back(OpenTag{out_.size(), name.size()});
  out_.append(name);
  start_tag_open_ = true;
  element_has_text_ = false;
  return *this;
}

Writer& Writer::attribute(std::string_view name, std::string_view value) {
  if (!start_tag_open_) {
    throw SpiError(ErrorCode::kInvalidArgument,
                   "attribute() outside an open start tag");
  }
  if (!is_valid_name(name)) {
    throw SpiError(ErrorCode::kInvalidArgument,
                   "invalid XML attribute name '" + std::string(name) + "'");
  }
  out_ += ' ';
  out_.append(name);
  out_ += "=\"";
  append_escaped_attribute(out_, value);
  out_ += '"';
  return *this;
}

Writer& Writer::raw_attribute(std::string_view name,
                              std::string_view escaped_value, char quote) {
  if (!start_tag_open_) {
    throw SpiError(ErrorCode::kInvalidArgument,
                   "raw_attribute() outside an open start tag");
  }
  out_ += ' ';
  out_.append(name);
  out_ += '=';
  out_ += quote;
  out_.append(escaped_value);
  out_ += quote;
  return *this;
}

Writer& Writer::text(std::string_view text) {
  if (open_elements_.empty()) {
    throw SpiError(ErrorCode::kInvalidArgument, "text() outside any element");
  }
  close_start_tag();
  append_escaped_text(out_, text);
  element_has_text_ = true;
  return *this;
}

Writer& Writer::shared_text(std::string_view text,
                            const std::shared_ptr<const std::string>& owner) {
  if (text.size() < kSpliceFloorBytes) return this->text(text);
  if (open_elements_.empty()) {
    throw SpiError(ErrorCode::kInvalidArgument, "text() outside any element");
  }
  close_start_tag();
  const size_t special = owner ? find_text_escape(text) : 0;
  if (special == std::string_view::npos) {
    splices_.push_back(Splice{out_.size(), SharedBytes{owner, text}});
    spliceable_ -= std::min(spliceable_, text.size());
  } else {
    // Copied after all: room for it and every spliceable string to come.
    grow(out_.capacity() + spliceable_);
    spliceable_ = 0;
    // The clean run before the first special byte is already scanned.
    out_.append(text.substr(0, special));
    append_escaped_text(out_, text.substr(special));
  }
  element_has_text_ = true;
  return *this;
}

Gathered Writer::take_gathered() {
  finish();
  return Gathered(std::move(out_), std::move(splices_));
}

Writer& Writer::raw(std::string_view xml) {
  if (open_elements_.empty()) {
    throw SpiError(ErrorCode::kInvalidArgument, "raw() outside any element");
  }
  close_start_tag();
  out_.append(xml);
  element_has_text_ = true;  // treat as opaque inline content
  return *this;
}

Writer& Writer::cdata(std::string_view text) {
  if (open_elements_.empty()) {
    throw SpiError(ErrorCode::kInvalidArgument, "cdata() outside any element");
  }
  close_start_tag();
  size_t start = 0;
  while (true) {
    size_t terminator = text.find("]]>", start);
    out_ += "<![CDATA[";
    if (terminator == std::string_view::npos) {
      out_.append(text.substr(start));
      out_ += "]]>";
      break;
    }
    // Split between "]]" and ">" so neither section contains "]]>".
    out_.append(text.substr(start, terminator - start + 2));
    out_ += "]]>";
    start = terminator + 2;
  }
  element_has_text_ = true;
  return *this;
}

Writer& Writer::end_element() {
  if (open_elements_.empty()) {
    throw SpiError(ErrorCode::kInvalidArgument,
                   "end_element() with no open element");
  }
  OpenTag tag = open_elements_.back();
  open_elements_.pop_back();
  if (start_tag_open_) {
    out_ += "/>";
    start_tag_open_ = false;
  } else {
    if (pretty_ && !element_has_text_) {
      out_ += '\n';
      indent();
    }
    // The name is appended out of out_ itself; reserve first so the data
    // pointer cannot move mid-append.
    out_.reserve(out_.size() + tag.name_length + 3);
    out_ += "</";
    out_.append(out_.data() + tag.name_offset, tag.name_length);
    out_ += '>';
  }
  element_has_text_ = false;
  return *this;
}

Writer& Writer::reserve(Reservation bytes) {
  grow(bytes.copied);
  spliceable_ = bytes.spliceable;
  return *this;
}

void Writer::grow(size_t capacity) {
  if (capacity <= out_.capacity()) return;
  std::string bigger = buffer_pool::take(capacity);
  bigger.append(out_);
  buffer_pool::give(std::move(out_));
  out_ = std::move(bigger);
}

Writer& Writer::text_element(std::string_view name, std::string_view text) {
  start_element(name);
  if (!text.empty()) this->text(text);
  return end_element();
}

Writer& Writer::finish() {
  while (!open_elements_.empty()) end_element();
  return *this;
}

void Writer::close_start_tag() {
  if (start_tag_open_) {
    out_ += '>';
    start_tag_open_ = false;
  }
}

void Writer::indent() {
  out_.append(open_elements_.size() * 2, ' ');
}

}  // namespace spi::xml
